package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	mppm "repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store/codec"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Reduced paper scale, matching the service tests: full pipeline
// semantics at test runtime.
const (
	testTraceLen = 200_000
	testInterval = 10_000
)

// newReplica starts one mppmd-shaped replica. storeDir == "" means no
// persistent store.
func newReplica(t testing.TB, storeDir string, sysOpts ...mppm.SystemOption) (*httptest.Server, *mppm.System) {
	t.Helper()
	opts := append([]mppm.SystemOption{mppm.WithScale(testTraceLen, testInterval)}, sysOpts...)
	if storeDir != "" {
		opts = append(opts, mppm.WithStore(storeDir))
	}
	sys := mppm.NewSystem(mppm.DefaultLLC(), opts...)
	ts := httptest.NewServer(service.New(sys, service.WithFleetMetrics()).Handler())
	t.Cleanup(ts.Close)
	return ts, sys
}

// suiteMixes builds a deterministic suite-wide workload: every
// benchmark paired with its neighbor.
func suiteMixes() [][]string {
	names := trace.SuiteNames()
	mixes := make([][]string, len(names))
	for i, n := range names {
		mixes[i] = []string{n, names[(i+1)%len(names)]}
	}
	return mixes
}

func allConfigNames() []string {
	var names []string
	for _, c := range mppm.LLCConfigs() {
		names = append(names, c.Name)
	}
	return names
}

func postRaw(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestRing(t *testing.T) {
	peers := []string{"http://a:8080", "http://b:8080", "http://c:8080"}
	r1, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same peers in a different order must agree on ownership by URL.
	r2, err := NewRing([]string{peers[2], peers[0], peers[1]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := make(map[int]int)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("config#%d|mix-%d", i%6+1, i)
		o1 := r1.Owner(key, nil)
		o2 := r2.Owner(key, nil)
		if r1.Replica(o1) != r2.Replica(o2) {
			t.Fatalf("key %q owned by %s in one ring, %s in the other",
				key, r1.Replica(o1), r2.Replica(o2))
		}
		owned[o1]++
	}
	for i := 0; i < 3; i++ {
		if owned[i] == 0 {
			t.Fatalf("replica %d owns nothing: %v", i, owned)
		}
	}
	// Killing an owner moves only its keys; survivors keep theirs.
	dead := r1.Owner("config#1|victim", nil)
	alive := func(i int) bool { return i != dead }
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("config#%d|mix-%d", i%6+1, i)
		was := r1.Owner(key, nil)
		now := r1.Owner(key, alive)
		if was != dead && now != was {
			t.Fatalf("key %q moved from surviving replica %d to %d", key, was, now)
		}
		if was == dead && now == dead {
			t.Fatalf("key %q still assigned to dead replica", key)
		}
	}
	if r1.Owner("anything", func(int) bool { return false }) != -1 {
		t.Fatal("owner found with no replica alive")
	}

	if _, err := NewRing(nil, 0); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := NewRing([]string{"http://a", "http://a"}, 0); err == nil {
		t.Fatal("duplicate replica accepted")
	}
}

// newTestFleet stands up n replicas plus a coordinator mounted over the
// first replica's handler, the way cmd/mppmd composes them.
func newTestFleet(t testing.TB, n int, cfg Config) (coord *httptest.Server, replicas []*httptest.Server) {
	t.Helper()
	for i := 0; i < n; i++ {
		ts, _ := newReplica(t, "")
		replicas = append(replicas, ts)
		cfg.Peers = append(cfg.Peers, ts.URL)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coord = httptest.NewServer(c.Mount(replicas[0].Config.Handler))
	t.Cleanup(coord.Close)
	return coord, replicas
}

// TestFleetByteIdentity is the differential oracle of the tentpole: a
// three-replica fleet evaluating the full suite across every Table 2
// config must answer byte-identically to a single node, in both
// response modes.
func TestFleetByteIdentity(t *testing.T) {
	single, _ := newReplica(t, "")
	coord, _ := newTestFleet(t, 3, Config{})

	req := map[string]any{
		"kind":    "compare",
		"mixes":   suiteMixes(),
		"configs": allConfigNames(),
	}

	wantResp, want := postRaw(t, single.URL+"/v1/eval", req)
	gotResp, got := postRaw(t, coord.URL+"/v1/eval", req)
	if wantResp.StatusCode != http.StatusOK || gotResp.StatusCode != http.StatusOK {
		t.Fatalf("status single=%d fleet=%d: %s", wantResp.StatusCode, gotResp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("buffered fleet response differs from single node\n fleet %d bytes, single %d bytes",
			len(got), len(want))
	}

	req["stream"] = true
	wantResp, want = postRaw(t, single.URL+"/v1/eval", req)
	gotResp, got = postRaw(t, coord.URL+"/v1/eval", req)
	if wantResp.StatusCode != http.StatusOK || gotResp.StatusCode != http.StatusOK {
		t.Fatalf("stream status single=%d fleet=%d", wantResp.StatusCode, gotResp.StatusCode)
	}
	if ct := gotResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("fleet stream Content-Type %q", ct)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streamed fleet response differs from single node\n fleet %d bytes, single %d bytes",
			len(got), len(want))
	}
	rows := bytes.Count(got, []byte{'\n'})
	if wantRows := len(suiteMixes()) * 6; rows != wantRows {
		t.Fatalf("%d streamed rows, want %d", rows, wantRows)
	}
}

// TestFleetErrorParity: requests the fleet can't or shouldn't
// distribute produce the same responses a single replica would.
func TestFleetErrorParity(t *testing.T) {
	single, _ := newReplica(t, "")
	coord, _ := newTestFleet(t, 2, Config{})

	for _, body := range []map[string]any{
		{"mixes": [][]string{{"nosuchbench", "lbm"}}, "configs": []string{"config#1"}},
		{"mixes": [][]string{}},
		{"kind": "frobnicate", "mixes": [][]string{{"gamess"}}},
		{"mixes": [][]string{{"gamess", "lbm"}, {"mcf", "milc"}}, "top_k": 1},
		{"mixes": [][]string{{"gamess", "lbm"}}, "configs": []string{"config#1"}, "unknown_field": 1},
	} {
		wantResp, want := postRaw(t, single.URL+"/v1/eval", body)
		gotResp, got := postRaw(t, coord.URL+"/v1/eval", body)
		if gotResp.StatusCode != wantResp.StatusCode {
			t.Fatalf("body %v: fleet status %d, single %d", body, gotResp.StatusCode, wantResp.StatusCode)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("body %v: fleet response %q, single %q", body, got, want)
		}
	}
}

// TestFleetTrailingDataParity: the coordinator accepts exactly the JSON
// bodies a single node accepts — data after the document is the same
// 400, a trailing newline the same 200.
func TestFleetTrailingDataParity(t *testing.T) {
	single, _ := newReplica(t, "")
	coord, _ := newTestFleet(t, 2, Config{})
	post := func(url, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(url+"/v1/eval", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, data
	}
	doc := `{"mixes":[["gamess","lbm"],["mcf","milc"]],"configs":["config#1","config#2"]}`
	for _, tc := range []struct {
		body   string
		status int
	}{
		{doc + ` {"bogus": garbage`, http.StatusBadRequest},
		{doc + "\n", http.StatusOK},
	} {
		wantStatus, want := post(single.URL, tc.body)
		gotStatus, got := post(coord.URL, tc.body)
		if wantStatus != tc.status || gotStatus != tc.status {
			t.Fatalf("body %q: single %d, fleet %d, want %d", tc.body, wantStatus, gotStatus, tc.status)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("body %q: fleet response %q, single %q", tc.body, got, want)
		}
	}
}

// killableReplica proxies a replica handler and kills the replica after
// it has streamed killAfter eval rows: in-flight streams are aborted
// mid-response and every later request is refused — a crash mid-sweep,
// as seen from the coordinator.
type killableReplica struct {
	h         http.Handler
	dead      atomic.Bool
	rows      atomic.Int64
	killAfter int64
}

func (k *killableReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.dead.Load() {
		http.Error(w, "replica down", http.StatusServiceUnavailable)
		return
	}
	if r.URL.Path == "/v1/eval" {
		w = &killWriter{ResponseWriter: w, k: k}
	}
	k.h.ServeHTTP(w, r)
}

type killWriter struct {
	http.ResponseWriter
	k *killableReplica
}

func (w *killWriter) Write(b []byte) (int, error) {
	if w.k.dead.Load() {
		panic(http.ErrAbortHandler)
	}
	n, err := w.ResponseWriter.Write(b)
	// Both transports issue one Write per row (the wire preamble and end
	// frame add one each), so counting writes approximates rows streamed
	// regardless of shard transport.
	if rows := w.k.rows.Add(1); rows >= w.k.killAfter {
		w.k.dead.Store(true)
		panic(http.ErrAbortHandler)
	}
	return n, err
}

func (w *killWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestFleetFailover kills one of three replicas after it streamed a few
// rows mid-sweep and asserts the merged stream still completes: every
// row, in order, no duplicates, byte-identical to a single node.
func TestFleetFailover(t *testing.T) {
	single, _ := newReplica(t, "")

	var peers []string
	var servers []*httptest.Server
	victims := make([]*killableReplica, 3)
	for i := 0; i < 3; i++ {
		sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(testTraceLen, testInterval))
		victims[i] = &killableReplica{
			h:         service.New(sys).Handler(),
			killAfter: 1 << 62, // immortal unless armed below
		}
		ts := httptest.NewServer(victims[i])
		t.Cleanup(ts.Close)
		servers = append(servers, ts)
		peers = append(peers, ts.URL)
	}

	mixes := suiteMixes()
	cfgNames := allConfigNames()

	// Arm the replica owning the most work units, so the kill is
	// guaranteed to strand shards mid-sweep.
	ring, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]int, 3)
	for _, cn := range cfgNames {
		for _, m := range mixes {
			owned[ring.Owner(cn+"|"+strings.Join(m, "|"), nil)]++
		}
	}
	victim := 0
	for i, n := range owned {
		if n > owned[victim] {
			victim = i
		}
	}
	if owned[victim] < 4 {
		t.Fatalf("victim replica owns only %d units: %v", owned[victim], owned)
	}
	victims[victim].killAfter = 3

	c, err := New(Config{Peers: peers, Retries: 1, RetryBackoff: 5_000_000 /* 5ms */})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(c.Mount(servers[0].Config.Handler))
	t.Cleanup(coord.Close)

	failoversBefore := obs.FleetShardFailoversTotal.Value()

	req := map[string]any{"mixes": mixes, "configs": cfgNames, "stream": true}
	_, want := postRaw(t, single.URL+"/v1/eval", req)
	resp, got := postRaw(t, coord.URL+"/v1/eval", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !victims[victim].dead.Load() {
		t.Fatal("victim replica was never killed; kill threshold not reached")
	}
	if !bytes.Equal(got, want) {
		// Diagnose: dup/missing/misordered rows all break byte equality.
		gotLines := bytes.Split(bytes.TrimSuffix(got, []byte{'\n'}), []byte{'\n'})
		wantLines := bytes.Split(bytes.TrimSuffix(want, []byte{'\n'}), []byte{'\n'})
		t.Fatalf("fleet stream with mid-sweep kill differs from single node: %d rows vs %d",
			len(gotLines), len(wantLines))
	}
	if d := obs.FleetShardFailoversTotal.Value() - failoversBefore; d == 0 {
		t.Fatal("no shard failovers recorded despite a dead replica")
	}
}

// TestPeerFetchColdStart: an empty-store replica joining a warm fleet
// must complete a suite-wide sweep without recomputing a single
// recording — every artifact arrives from peers.
func TestPeerFetchColdStart(t *testing.T) {
	warmSrv, warmSys := newReplica(t, t.TempDir())
	configs := mppm.LLCConfigs()
	if _, err := warmSys.Warm(context.Background(), configs...); err != nil {
		t.Fatal(err)
	}

	fetcher := NewFetcher([]string{warmSrv.URL}, "", nil)
	coldDir := t.TempDir()
	cold := mppm.NewSystem(mppm.DefaultLLC(),
		mppm.WithScale(testTraceLen, testInterval),
		mppm.WithStore(coldDir),
		mppm.WithPeerFetch(fetcher.Fetch))

	var mixes []mppm.Mix
	for _, m := range suiteMixes() {
		mixes = append(mixes, mppm.Mix(m))
	}
	res, err := cold.Eval(context.Background(),
		mppm.NewRequest(mppm.KindPredict, mixes, mppm.WithConfigs(configs...)))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if n := cold.EngineStats().RecordingComputations; n != 0 {
		t.Fatalf("cold replica computed %d recordings; want 0 (all peer-fetched)", n)
	}
	stats, _, ok := cold.StoreStats()
	if !ok {
		t.Fatal("cold replica has no store stats")
	}
	if stats.PeerFetchHits == 0 {
		t.Fatal("cold replica recorded no peer fetch hits")
	}
	if stats.PeerBytesFetched == 0 {
		t.Fatal("cold replica recorded no peer bytes fetched")
	}
}

// TestVersionSkew: a peer running a different artifact codec format
// version is refused — by the artifact fetcher and by the coordinator,
// which routes its work to compatible replicas instead.
func TestVersionSkew(t *testing.T) {
	skewed := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/version" {
			t.Errorf("skewed peer got %s %s; version gate should have refused first", r.Method, r.URL.Path)
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(service.VersionResponse{
			Module: "repro", Version: "devel",
			CodecFormatVersion: codec.FormatVersion + 1,
		})
	}))
	t.Cleanup(skewed.Close)

	cl := NewClient(skewed.URL, nil)
	if err := cl.Check(context.Background()); err == nil {
		t.Fatal("codec-mismatched peer accepted")
	}
	if !cl.Refused() {
		t.Fatal("mismatch not cached as a permanent refusal")
	}

	// The fetcher treats a skewed-only fleet as a total miss.
	f := NewFetcher([]string{skewed.URL}, "", nil)
	if _, err := f.Fetch("recordings", strings.Repeat("0", 32)); err == nil {
		t.Fatal("fetch from codec-mismatched peer succeeded")
	}

	// A coordinator over one skewed and two good replicas still answers
	// correctly: the skewed peer's shards fail over before dispatch.
	single, _ := newReplica(t, "")
	good1, _ := newReplica(t, "")
	good2, _ := newReplica(t, "")
	c, err := New(Config{Peers: []string{skewed.URL, good1.URL, good2.URL}, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(c.Mount(good1.Config.Handler))
	t.Cleanup(coord.Close)

	req := map[string]any{"mixes": suiteMixes()[:4], "configs": []string{"config#1", "config#2"}}
	_, want := postRaw(t, single.URL+"/v1/eval", req)
	resp, got := postRaw(t, coord.URL+"/v1/eval", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fleet with a skewed peer answered differently from single node")
	}
}

// TestReorderBuffer covers the merge invariants directly: in-order
// release, duplicate suppression, out-of-range rejection.
func TestReorderBuffer(t *testing.T) {
	mk := func(cfg string) *service.ScenarioResult {
		return &service.ScenarioResult{Config: cfg}
	}
	rb := newReorderBuffer(3)
	if _, ok := rb.Pop(); ok {
		t.Fatal("pop from empty buffer")
	}
	if !rb.Add(2, mk("c")) || !rb.Add(1, mk("b")) {
		t.Fatal("fresh rows rejected")
	}
	if rb.Add(1, mk("b2")) {
		t.Fatal("duplicate pending row accepted")
	}
	if rb.Add(3, mk("d")) || rb.Add(-1, mk("z")) {
		t.Fatal("out-of-range row accepted")
	}
	if _, ok := rb.Pop(); ok {
		t.Fatal("released row 1 before row 0 arrived")
	}
	if !rb.Add(0, mk("a")) {
		t.Fatal("row 0 rejected")
	}
	var out []string
	for {
		sc, ok := rb.Pop()
		if !ok {
			break
		}
		out = append(out, sc.Config)
	}
	if strings.Join(out, "") != "abc" {
		t.Fatalf("released %v, want a,b,c", out)
	}
	if !rb.Done() {
		t.Fatal("buffer not done after releasing every row")
	}
	if rb.Add(0, mk("a")) {
		t.Fatal("released row re-accepted")
	}
}

// BenchmarkFleetSweep measures a three-replica fleet serving the
// suite-wide Table 2 sweep end to end (coordinator fan-out, shard
// streams, reorder merge), the fleet counterpart of BenchmarkSweep.
func BenchmarkFleetSweep(b *testing.B) {
	coord, _ := newTestFleet(b, 3, Config{})
	body, err := json.Marshal(map[string]any{
		"mixes": suiteMixes(), "configs": allConfigNames(),
	})
	if err != nil {
		b.Fatal(err)
	}
	// One throwaway sweep warms every replica's profile caches so the
	// steady state measures fan-out and merge, not first-touch profiling.
	warm := func() {
		resp, err := http.Post(coord.URL+"/v1/eval", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
		for sc.Scan() {
		}
		resp.Body.Close()
	}
	warm()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(coord.URL+"/v1/eval", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d err %v", resp.StatusCode, err)
		}
		if len(data) == 0 {
			b.Fatal("empty response")
		}
	}
}

// switchHandler lets a server start before its final handler exists —
// needed to build the production topology, where every replica's
// coordinator ring contains the replica's own (port-assigned) URL.
type switchHandler struct{ h atomic.Value }

func (s *switchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.h.Load().(http.Handler).ServeHTTP(w, r)
}

// TestFleetSelfCoordination reproduces the production topology that
// newTestFleet does not: every replica runs a coordinator over the same
// peer set, so each is in its own ring and shard sub-requests addressed
// to the coordinating replica arrive back at its own coordinator. Those
// must be served locally, not re-sharded — before the shard marker
// header existed, a self-owned unit recursed through the coordinator
// forever and the request never completed.
func TestFleetSelfCoordination(t *testing.T) {
	const n = 3
	var (
		servers  []*httptest.Server
		switches []*switchHandler
		peers    []string
	)
	for i := 0; i < n; i++ {
		sw := &switchHandler{}
		ts := httptest.NewServer(sw)
		t.Cleanup(ts.Close)
		servers = append(servers, ts)
		switches = append(switches, sw)
		peers = append(peers, ts.URL)
	}
	var coord0 *Coordinator
	for i := 0; i < n; i++ {
		sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(testTraceLen, testInterval))
		c, err := New(Config{Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			coord0 = c
		}
		switches[i].h.Store(c.Mount(service.New(sys, service.WithFleetMetrics()).Handler()))
	}

	mixes := suiteMixes()
	configs := allConfigNames()[:2]

	// The failure mode only triggers when the entry replica owns at
	// least one unit; with this grid the odds of it owning none are
	// (2/3)^(len(mixes)*2) — vanishingly small, but assert it anyway so
	// a silent miss can't weaken the test.
	self := 0
	for _, cfg := range configs {
		for _, m := range mixes {
			key := cfg + "|" + strings.Join(m, "|")
			if coord0.ring.Owner(key, func(int) bool { return true }) == 0 {
				self++
			}
		}
	}
	if self == 0 {
		t.Fatalf("entry replica owns no units; grid cannot exercise self-coordination")
	}

	single, _ := newReplica(t, "")
	req := map[string]any{"kind": "compare", "mixes": mixes, "configs": configs}
	wantResp, want := postRaw(t, single.URL+"/v1/eval", req)
	if wantResp.StatusCode != http.StatusOK {
		t.Fatalf("single node: status %d: %s", wantResp.StatusCode, want)
	}
	gotResp, got := postRaw(t, servers[0].URL+"/v1/eval", req)
	if gotResp.StatusCode != http.StatusOK {
		t.Fatalf("fleet: status %d: %s", gotResp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("self-coordinated fleet response differs from single node\nfleet:  %d bytes\nsingle: %d bytes", len(got), len(want))
	}

	req["stream"] = true
	wantResp, want = postRaw(t, single.URL+"/v1/eval", req)
	if wantResp.StatusCode != http.StatusOK {
		t.Fatalf("single node stream: status %d: %s", wantResp.StatusCode, want)
	}
	gotResp, got = postRaw(t, servers[0].URL+"/v1/eval", req)
	if gotResp.StatusCode != http.StatusOK {
		t.Fatalf("fleet stream: status %d: %s", gotResp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("self-coordinated fleet stream differs from single node\nfleet:  %d bytes\nsingle: %d bytes", len(got), len(want))
	}
}

// versionRewriteProxy fronts a real replica, forwarding every request
// verbatim. When rewrite is non-nil the /v1/version answer is decoded,
// edited and re-encoded on the way through; evalCT records the
// Content-Type of the last /v1/eval post, exposing which transport the
// client actually negotiated.
func versionRewriteProxy(t *testing.T, target string, evalCT *atomic.Value, rewrite func(*service.VersionResponse)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/version" && rewrite != nil {
			resp, err := http.Get(target + "/v1/version")
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			var v service.VersionResponse
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				http.Error(w, err.Error(), http.StatusBadGateway)
				return
			}
			rewrite(&v)
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(v)
			return
		}
		if r.URL.Path == "/v1/eval" && evalCT != nil {
			evalCT.Store(r.Header.Get("Content-Type"))
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, target+r.URL.RequestURI(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header.Clone()
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestWireVersionSkewFallback: a peer whose codec version matches but
// whose wire stream version does not is NOT refused — the client keeps
// talking to it over the NDJSON transport and the rows come back
// identical to a binary exchange with a matched peer.
func TestWireVersionSkewFallback(t *testing.T) {
	replica, _ := newReplica(t, "")
	var skewCT, plainCT atomic.Value
	skewed := versionRewriteProxy(t, replica.URL, &skewCT, func(v *service.VersionResponse) {
		v.WireFormatVersion = wire.FormatVersion + 1
	})
	plain := versionRewriteProxy(t, replica.URL, &plainCT, nil)

	ctx := context.Background()
	req := service.EvalRequest{
		Kind: "compare", Mixes: suiteMixes()[:3],
		Configs: []string{"config#1", "config#2"}, Stream: true,
	}
	collect := func(cl *Client) []string {
		t.Helper()
		if err := cl.Check(ctx); err != nil {
			t.Fatal(err)
		}
		var lines []string
		err := cl.StreamEval(ctx, req, func(sc *service.ScenarioResult) error {
			b, err := json.Marshal(sc)
			if err != nil {
				return err
			}
			lines = append(lines, string(b))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}

	scl := NewClient(skewed.URL, nil)
	got := collect(scl)
	if scl.Refused() {
		t.Fatal("wire skew treated as a permanent refusal; only codec skew refuses")
	}
	if scl.WireOK() {
		t.Fatal("wire-skewed peer negotiated binary transport")
	}
	if ct, _ := skewCT.Load().(string); ct != "application/json" {
		t.Fatalf("skewed peer got Content-Type %q, want application/json fallback", ct)
	}

	pcl := NewClient(plain.URL, nil)
	want := collect(pcl)
	if !pcl.WireOK() {
		t.Fatal("matched-version peer did not negotiate binary transport")
	}
	if ct, _ := plainCT.Load().(string); ct != wire.ContentType {
		t.Fatalf("matched peer got Content-Type %q, want %q", ct, wire.ContentType)
	}

	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("NDJSON fallback yielded %d rows, binary exchange %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d differs between transports\nndjson: %s\nwire:   %s", i, got[i], want[i])
		}
	}
}

// gatedReplica proxies a replica handler. The first eval response it
// serves is pushed to the client up to and including its first row;
// the next write then blocks until release is closed — a replica that
// has one row done and is still computing the rest.
type gatedReplica struct {
	h       http.Handler
	armed   atomic.Bool
	held    atomic.Bool // a write is blocked on release
	release chan struct{}
}

func (g *gatedReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/eval" && g.armed.CompareAndSwap(true, false) {
		w = &gateWriter{ResponseWriter: w, g: g, ctx: r.Context()}
	}
	g.h.ServeHTTP(w, r)
}

type gateWriter struct {
	http.ResponseWriter
	g      *gatedReplica
	ctx    context.Context
	writes int
}

func (w *gateWriter) Write(b []byte) (int, error) {
	// One Write per row in both transports, plus the wire preamble.
	firstRow := 1
	if w.Header().Get("Content-Type") == wire.ContentType {
		firstRow = 2
	}
	if w.writes == firstRow {
		w.Flush()
		w.g.held.Store(true)
		select {
		case <-w.g.release:
		case <-w.ctx.Done():
		}
	}
	w.writes++
	return w.ResponseWriter.Write(b)
}

func (w *gateWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestFleetStreamsIncrementally: the coordinator must hand row 0 to its
// client while the replica that owns it still holds back the rest of its
// shard — merged rows are flushed once the merge loop has caught up, not
// only at the end — and the released stream must still match a single
// node.
func TestFleetStreamsIncrementally(t *testing.T) {
	single, _ := newReplica(t, "")
	released := make(chan struct{})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(released) }) }
	t.Cleanup(release)
	var peers []string
	var gates []*gatedReplica
	var servers []*httptest.Server
	for i := 0; i < 2; i++ {
		sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(testTraceLen, testInterval))
		g := &gatedReplica{h: service.New(sys).Handler(), release: released}
		ts := httptest.NewServer(g)
		t.Cleanup(ts.Close)
		gates, servers, peers = append(gates, g), append(servers, ts), append(peers, ts.URL)
	}
	mixes := suiteMixes()[:8]
	ring, err := NewRing(peers, 0)
	if err != nil {
		t.Fatal(err)
	}
	gate := gates[ring.Owner("config#1|"+strings.Join(mixes[0], "|"), nil)]
	gate.armed.Store(true)
	c, err := New(Config{Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	coord := httptest.NewServer(c.Mount(servers[0].Config.Handler))
	t.Cleanup(coord.Close)

	req := map[string]any{"mixes": mixes, "configs": []string{"config#1"}, "stream": true}
	_, want := postRaw(t, single.URL+"/v1/eval", req)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	// Even the response headers only arrive with a flush, so the request
	// itself runs under the deadline.
	type firstRow struct {
		resp *http.Response
		br   *bufio.Reader
		line []byte
		err  error
	}
	first := make(chan firstRow, 1)
	go func() {
		resp, err := http.Post(coord.URL+"/v1/eval", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- firstRow{err: err}
			return
		}
		br := bufio.NewReader(resp.Body)
		line, err := br.ReadBytes('\n')
		first <- firstRow{resp, br, line, err}
	}()
	var f firstRow
	select {
	case f = <-first:
	case <-time.After(20 * time.Second):
		release()
		t.Fatal("row 0 did not reach the client while the replica held back the rest of its shard")
	}
	if f.err != nil {
		t.Fatal(f.err)
	}
	defer f.resp.Body.Close()
	if f.resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", f.resp.StatusCode, f.line)
	}
	// The gate engages right after the replica's first row; it may not
	// have yet if the replica flushed that row itself while computing.
	for deadline := time.Now().Add(20 * time.Second); !gate.held.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the replica was never held back after its first row")
		}
	}
	release()
	rest, err := io.ReadAll(f.br)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(f.line, rest...); !bytes.Equal(got, want) {
		t.Fatalf("gated fleet stream differs from single node:\n got %s\nwant %s", got, want)
	}
}
