package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	mppm "repro"
	"repro/internal/trace"
	"repro/internal/workload"
)

const (
	testTraceLen = 200_000
	testInterval = 10_000
)

func newTestServer(t *testing.T) (*httptest.Server, *mppm.System) {
	t.Helper()
	sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(testTraceLen, testInterval))
	ts := httptest.NewServer(New(sys).Handler())
	t.Cleanup(ts.Close)
	return ts, sys
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
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

func TestCatalog(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/benchmarks")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cat CatalogResponse
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	if len(cat.Benchmarks) != len(trace.SuiteNames()) {
		t.Fatalf("%d benchmarks, want %d", len(cat.Benchmarks), len(trace.SuiteNames()))
	}
	if len(cat.LLCConfigs) != 6 {
		t.Fatalf("%d LLC configs, want 6", len(cat.LLCConfigs))
	}
	if len(cat.ContentionModels) == 0 || cat.ContentionModels[0] != "FOA" {
		t.Fatalf("contention models %v, want FOA first", cat.ContentionModels)
	}
	if cat.TraceLength != testTraceLen {
		t.Fatalf("trace length %d, want %d", cat.TraceLength, testTraceLen)
	}
}

func TestPredictEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/predict", EvalRequest{
		Mix: []string{"gamess", "lbm", "soplex", "mcf"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res MixResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != "predict" || res.Config != "config#1" {
		t.Fatalf("kind/config = %q/%q", res.Kind, res.Config)
	}
	if res.STP <= 0 || res.STP > 4 || res.ANTT < 1 {
		t.Fatalf("implausible metrics STP=%v ANTT=%v", res.STP, res.ANTT)
	}
	if len(res.MultiCPI) != 4 || len(res.Slowdown) != 4 {
		t.Fatalf("per-program vectors wrong length: %+v", res)
	}
	if res.Iterations == 0 {
		t.Fatal("prediction reported zero solver iterations")
	}
}

func TestSimulateEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/simulate", EvalRequest{
		Mix:    []string{"gamess", "lbm"},
		Config: "config#2",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res MixResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != "simulate" || res.Config != "config#2" {
		t.Fatalf("kind/config = %q/%q", res.Kind, res.Config)
	}
	if res.STP <= 0 {
		t.Fatalf("STP = %v", res.STP)
	}
	for i, s := range res.Slowdown {
		if s < 1 {
			t.Fatalf("slowdown[%d] = %v < 1", i, s)
		}
	}
}

// TestEvalEndpoint exercises the canonical endpoint: a compare request
// over two mixes and two configs, scenarios in config-major order with
// both sides populated.
func TestEvalEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/eval", EvalRequest{
		Kind:    "compare",
		Mixes:   [][]string{{"gamess", "lbm"}, {"mcf", "milc"}},
		Configs: []string{"config#1", "config#2"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res EvalResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != "compare" || res.Mixes != 2 || len(res.Configs) != 2 {
		t.Fatalf("response shape: %s %d mixes %v configs", res.Kind, res.Mixes, res.Configs)
	}
	if len(res.Scenarios) != 4 {
		t.Fatalf("%d scenarios, want 4", len(res.Scenarios))
	}
	for i, sc := range res.Scenarios {
		wantConfig := res.Configs[i/2]
		if sc.Config != wantConfig {
			t.Fatalf("scenario %d on %s, want %s (config-major order)", i, sc.Config, wantConfig)
		}
		if sc.Error != "" {
			t.Fatalf("scenario %d: %s", i, sc.Error)
		}
		if sc.Prediction == nil || sc.Measurement == nil {
			t.Fatalf("compare scenario %d missing a side", i)
		}
		if sc.Prediction.STP <= 0 || sc.Measurement.STP <= 0 {
			t.Fatalf("scenario %d degenerate STP", i)
		}
	}
}

// TestEvalTopK asks /v1/eval for the 2 worst of 8 mixes by predicted
// STP — the stress-search shape.
func TestEvalTopK(t *testing.T) {
	ts, _ := newTestServer(t)
	s, err := workload.NewSampler(trace.SuiteNames(), 3)
	if err != nil {
		t.Fatal(err)
	}
	mixes, err := s.RandomMixes(8, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	req := EvalRequest{Mixes: make([][]string, len(mixes)), TopK: 2}
	for i, m := range mixes {
		req.Mixes[i] = m
	}
	resp, data := postJSON(t, ts.URL+"/v1/eval", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res EvalResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 2 {
		t.Fatalf("top_k kept %d scenarios, want 2", len(res.Scenarios))
	}
	if res.Scenarios[0].Prediction.STP > res.Scenarios[1].Prediction.STP {
		t.Fatal("top_k scenarios not worst-first")
	}
}

// TestErrorStatusMapping is the error-taxonomy contract: unknown
// benchmark → 404, malformed requests → 400.
func TestErrorStatusMapping(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []struct {
		name   string
		path   string
		body   string
		status int
	}{
		{"unknown benchmark", "/v1/predict", `{"mix":["nope"]}`, http.StatusNotFound},
		{"unknown benchmark eval", "/v1/eval", `{"mix":["nope"]}`, http.StatusNotFound},
		{"unknown benchmark sweep-wide", "/v1/eval", `{"mixes":[["nope"],["also-nope"]]}`, http.StatusNotFound},
		{"empty mix", "/v1/predict", `{"mix":[]}`, http.StatusBadRequest},
		{"unknown config", "/v1/predict", `{"mix":["gamess"],"config":"config#9"}`, http.StatusBadRequest},
		{"unknown contention", "/v1/predict", `{"mix":["gamess"],"contention":"nope"}`, http.StatusBadRequest},
		{"unknown field", "/v1/predict", `{"mix":["gamess"],"bogus":1}`, http.StatusBadRequest},
		{"batch field on predict", "/v1/predict", `{"mixes":[["gamess"]]}`, http.StatusBadRequest},
		{"malformed json", "/v1/sweep", `{"mixes":`, http.StatusBadRequest},
		{"no mixes", "/v1/sweep", `{"mixes":[]}`, http.StatusBadRequest},
		{"sweep bad kind", "/v1/sweep", `{"mixes":[["gamess"]],"kind":"frobnicate"}`, http.StatusBadRequest},
		{"sweep compare kind", "/v1/sweep", `{"mixes":[["gamess"]],"kind":"compare"}`, http.StatusBadRequest},
		{"eval bad kind", "/v1/eval", `{"mix":["gamess"],"kind":"frobnicate"}`, http.StatusBadRequest},
		{"eval mix and mixes", "/v1/eval", `{"mix":["gamess"],"mixes":[["lbm"]]}`, http.StatusBadRequest},
		{"eval negative top_k", "/v1/eval", `{"mix":["gamess"],"top_k":-1}`, http.StatusBadRequest},
		{"oversized mix", "/v1/predict", fmt.Sprintf(`{"mix":%s}`, bigMixJSON(65)), http.StatusBadRequest},
		{"oversized sweep mix", "/v1/sweep", fmt.Sprintf(`{"mixes":[%s]}`, bigMixJSON(65)), http.StatusBadRequest},
		{"too many mixes", "/v1/sweep", fmt.Sprintf(`{"mixes":%s}`, manyMixesJSON(2049)), http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, data)
		}
		var e errorBody
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error envelope missing: %s", tc.name, data)
		}
	}
}

// TestEvalRejectsNonPowerOfTwoLineSize: a server whose default LLC has
// 48-byte lines must answer /v1/eval with 400 and ErrBadConfig's
// message. The cache indexes by the line size's bit width, so accepting
// it would silently model 16-byte lines.
func TestEvalRejectsNonPowerOfTwoLineSize(t *testing.T) {
	llc := mppm.LLCConfig{Name: "odd-line", SizeBytes: 48 * 8 * 1024, Ways: 8, LineSize: 48, LatencyCycles: 16}
	sys := mppm.NewSystem(llc, mppm.WithScale(testTraceLen, testInterval))
	ts := httptest.NewServer(New(sys).Handler())
	t.Cleanup(ts.Close)
	resp, data := postJSON(t, ts.URL+"/v1/eval", EvalRequest{Mix: []string{"gamess", "lbm"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, data)
	}
	var e errorBody
	if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, "line size 48") {
		t.Fatalf("error body %s does not name the line size", data)
	}
}

// TestEvalPartialFailure checks batch semantics: one bad mix among good
// ones is embedded per-scenario, not fatal.
func TestEvalPartialFailure(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := postJSON(t, ts.URL+"/v1/eval", EvalRequest{
		Mixes: [][]string{{"gamess"}, {"nope"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res EvalResponse
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Scenarios[0].Error != "" || res.Scenarios[0].Prediction == nil {
		t.Fatalf("good scenario: %+v", res.Scenarios[0])
	}
	if res.Scenarios[1].Error == "" {
		t.Fatal("bad scenario did not report its error")
	}
}

func bigMixJSON(n int) string {
	mix := make([]string, n)
	for i := range mix {
		mix[i] = "gamess"
	}
	b, _ := json.Marshal(mix)
	return string(b)
}

func manyMixesJSON(n int) string {
	mixes := make([][]string, n)
	for i := range mixes {
		mixes[i] = []string{"gamess"}
	}
	b, _ := json.Marshal(mixes)
	return string(b)
}

// TestSweepLarge is the acceptance-criteria request: 100 mixes x all 6
// LLC configurations in one call, with every (benchmark, LLC) profile
// computed at most once across the whole sweep.
func TestSweepLarge(t *testing.T) {
	ts, sys := newTestServer(t)
	s, err := workload.NewSampler(trace.SuiteNames(), 11)
	if err != nil {
		t.Fatal(err)
	}
	mixes, err := s.RandomMixes(100, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	req := EvalRequest{Mixes: make([][]string, len(mixes))}
	for i, m := range mixes {
		req.Mixes[i] = m
	}

	resp, data := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var sw SweepResponse
	if err := json.Unmarshal(data, &sw); err != nil {
		t.Fatal(err)
	}
	if sw.Mixes != 100 || len(sw.Configs) != 6 {
		t.Fatalf("sweep shape: %d mixes x %d configs", sw.Mixes, len(sw.Configs))
	}
	for _, row := range sw.Configs {
		if len(row.Results) != 100 {
			t.Fatalf("config %s has %d results", row.Config, len(row.Results))
		}
		if row.MeanSTP <= 0 {
			t.Fatalf("config %s mean STP %v", row.Config, row.MeanSTP)
		}
		for i, r := range row.Results {
			if r.Error != "" {
				t.Fatalf("config %s mix %d: %s", row.Config, i, r.Error)
			}
			if r.Mix[0] != mixes[i][0] {
				t.Fatalf("config %s: result %d misaligned with request order", row.Config, i)
			}
		}
	}
	// Every benchmark appears in some mix, so the exact profile count is
	// #distinct (benchmark, LLC) pairs touched by the sweep.
	distinct := make(map[string]bool)
	for _, row := range sw.Configs {
		for _, m := range mixes {
			for _, b := range m {
				distinct[b+"/"+row.Config] = true
			}
		}
	}
	if got := sys.EngineStats().ProfileComputations; got != int64(len(distinct)) {
		t.Fatalf("computed %d profiles, want exactly %d", got, len(distinct))
	}
}

// TestConcurrentRequests hammers the server from many goroutines (run
// under -race in CI) and checks that identical requests get identical
// answers while the profile cache still computes each profile once.
func TestConcurrentRequests(t *testing.T) {
	ts, sys := newTestServer(t)
	mix := []string{"gamess", "lbm", "soplex", "mcf"}

	ref, data := postJSON(t, ts.URL+"/v1/predict", EvalRequest{Mix: mix})
	if ref.StatusCode != http.StatusOK {
		t.Fatalf("seed request failed: %s", data)
	}
	var want MixResult
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var body any
			path := "/v1/predict"
			switch g % 4 {
			case 0:
				body = EvalRequest{Mix: mix}
			case 1:
				body = EvalRequest{Mix: mix, Config: "config#3"}
			case 2:
				path = "/v1/sweep"
				body = EvalRequest{Mixes: [][]string{mix, {"mcf", "milc"}}, Configs: []string{"config#1"}}
			case 3:
				path = "/v1/eval"
				body = EvalRequest{Mixes: [][]string{mix, {"mcf", "milc"}}}
			}
			buf, _ := json.Marshal(body)
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("goroutine %d: status %d: %s", g, resp.StatusCode, out)
				return
			}
			if g%4 == 0 {
				var got MixResult
				if err := json.Unmarshal(out, &got); err != nil {
					errs <- err
					return
				}
				if got.STP != want.STP || got.ANTT != want.ANTT {
					errs <- fmt.Errorf("goroutine %d: STP/ANTT %v/%v, want %v/%v",
						g, got.STP, got.ANTT, want.STP, want.ANTT)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// config#1 and config#3 profiles for the touched benchmarks only.
	if got := sys.EngineStats().ProfileComputations; got > 2*int64(len(trace.SuiteNames())) {
		t.Fatalf("profile cache leak: %d computations", got)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestWarmupEndpoint(t *testing.T) {
	ts, sys := newTestServer(t)

	resp, data := postJSON(t, ts.URL+"/v1/warmup", map[string]any{
		"configs": []string{"config#1", "config#3"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, data)
	}
	var out WarmupResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	suite := len(trace.SuiteNames())
	if out.Profiles != suite*2 {
		t.Fatalf("warmed %d profiles, want %d", out.Profiles, suite*2)
	}
	// Record-once: warming two configs must not have cost two full
	// profiling passes per benchmark.
	if out.Recordings != int64(suite) {
		t.Fatalf("warmup ran %d recordings for %d benchmarks", out.Recordings, suite)
	}
	if got := sys.EngineStats().ProfileComputations; got != int64(suite*2) {
		t.Fatalf("engine computed %d profiles, want %d", got, suite*2)
	}

	// A second warmup of an already-warm config reports zero new
	// recordings (the field is per-request, not process-cumulative).
	resp, data = postJSON(t, ts.URL+"/v1/warmup", map[string]any{
		"configs": []string{"config#1"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-warm: status = %d: %s", resp.StatusCode, data)
	}
	var again WarmupResponse
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	if again.Recordings != 0 {
		t.Fatalf("re-warm reported %d new recordings, want 0", again.Recordings)
	}

	// A prediction after warmup is served entirely from cache.
	resp, data = postJSON(t, ts.URL+"/v1/predict", map[string]any{
		"mix": []string{"gamess", "lbm"}, "config": "config#3",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after warmup: status = %d: %s", resp.StatusCode, data)
	}
	if got := sys.EngineStats().ProfileComputations; got != int64(suite*2) {
		t.Fatalf("predict after warmup recomputed profiles: %d", got)
	}

	// Unknown config name is a 400 via ErrBadConfig.
	resp, _ = postJSON(t, ts.URL+"/v1/warmup", map[string]any{"configs": []string{"config#9"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad config: status = %d, want 400", resp.StatusCode)
	}
}

// TestStatsEndpoint exercises GET /v1/stats with and without a store:
// counters must reflect the work a warmup actually did, and the store
// block must appear exactly when a store is configured.
func TestStatsEndpoint(t *testing.T) {
	t.Run("memory-only", func(t *testing.T) {
		ts, _ := newTestServer(t)
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var stats StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		if stats.Store != nil {
			t.Fatalf("store block present without a store: %+v", stats.Store)
		}
	})

	t.Run("with store", func(t *testing.T) {
		dir := t.TempDir()
		sys := mppm.NewSystem(mppm.DefaultLLC(),
			mppm.WithScale(testTraceLen, testInterval),
			mppm.WithStore(dir))
		ts := httptest.NewServer(New(sys).Handler())
		t.Cleanup(ts.Close)

		// Warm one config; /v1/warmup persists what it warms.
		resp, _ := postJSON(t, ts.URL+"/v1/warmup", WarmupRequest{Configs: []string{"config#1"}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup status %d", resp.StatusCode)
		}

		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var stats StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		suite := len(trace.SuiteNames())
		if stats.Engine.ProfilesComputed != int64(suite) {
			t.Fatalf("profiles_computed = %d, want %d", stats.Engine.ProfilesComputed, suite)
		}
		if stats.Engine.CachedProfiles != suite {
			t.Fatalf("cached_profiles = %d, want %d", stats.Engine.CachedProfiles, suite)
		}
		if stats.Store == nil {
			t.Fatal("store block missing")
		}
		if stats.Store.Dir != dir {
			t.Fatalf("store dir = %q, want %q", stats.Store.Dir, dir)
		}
		// Warmup persisted one recording and one profile per benchmark.
		if stats.Store.Saves != int64(2*suite) {
			t.Fatalf("store saves = %d, want %d", stats.Store.Saves, 2*suite)
		}

		// A second replica sharing the store warms from disk: its stats
		// show store hits and zero computations.
		sys2 := mppm.NewSystem(mppm.DefaultLLC(),
			mppm.WithScale(testTraceLen, testInterval),
			mppm.WithStore(dir))
		ts2 := httptest.NewServer(New(sys2).Handler())
		t.Cleanup(ts2.Close)
		resp, _ = postJSON(t, ts2.URL+"/v1/warmup", WarmupRequest{Configs: []string{"config#1"}})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replica warmup status %d", resp.StatusCode)
		}
		resp, err = http.Get(ts2.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
			t.Fatal(err)
		}
		if stats.Engine.ProfilesComputed != 0 || stats.Engine.RecordingsComputed != 0 {
			t.Fatalf("replica recomputed: %+v", stats.Engine)
		}
		if stats.Store.ProfileHits != int64(suite) {
			t.Fatalf("replica profile hits = %d, want %d", stats.Store.ProfileHits, suite)
		}
	})
}
