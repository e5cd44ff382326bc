package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	mppm "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// newCoalServer builds a server whose coalescer the test can reach.
func newCoalServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(testTraceLen, testInterval))
	srv := New(sys)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// holdEval registers a shared evaluation for mreq WITHOUT starting its
// producer, so subscribers arriving over HTTP deterministically join it
// instead of racing the evaluation's completion. The returned release
// function starts the real producer; the returned sharedEval lets the
// test observe subscriber counts. The test holds one subscription
// itself (balanced by cleanup), so the job survives subscriber churn.
func holdEval(t *testing.T, srv *Server, mreq mppm.Request) (*sharedEval, func()) {
	t.Helper()
	key := srv.evalIdentity(mreq)
	ctx, cancel := context.WithCancel(context.Background())
	se := &sharedEval{
		key: key, c: &srv.coal, ctx: ctx, cancel: cancel,
		notify: make(chan struct{}), subs: 1,
	}
	srv.coal.mu.Lock()
	srv.coal.inflight[key] = se
	srv.coal.mu.Unlock()
	t.Cleanup(se.leave)
	return se, func() { go srv.runSharedEval(se, mreq) }
}

func subscribers(se *sharedEval) int {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.subs
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// coalTestRequest is the shared workload of the HTTP coalescing tests:
// small enough to finish quickly, wide enough to stream several rows.
func coalTestRequest() EvalRequest {
	return EvalRequest{
		Kind:    "compare",
		Mixes:   [][]string{{"gamess", "lbm"}, {"mcf", "milc"}, {"soplex", "namd"}},
		Configs: []string{"config#1", "config#2"},
	}
}

// TestCoalescedIdenticalRequests is the tentpole property: N identical
// concurrent /v1/eval requests — across ALL THREE response encodings —
// execute exactly one engine evaluation, and every subscriber receives
// the full, identical result. Engine cost is compared against the same
// request served once on a fresh system, so profile/simulation caching
// cannot mask duplicated work.
func TestCoalescedIdenticalRequests(t *testing.T) {
	req := coalTestRequest()

	// Reference run: one request on a fresh system = the engine job
	// budget the coalesced fan-in must not exceed.
	_, refTS := newCoalServer(t)
	jobsBefore := obs.EngineJobsTotal.Value()
	if resp, data := postJSON(t, refTS.URL+"/v1/eval", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("reference status %d: %s", resp.StatusCode, data)
	}
	refJobs := obs.EngineJobsTotal.Value() - jobsBefore
	if refJobs == 0 {
		t.Fatal("reference request ran zero engine jobs; the comparison is vacuous")
	}

	srv, ts := newCoalServer(t)
	mreq, err := BuildRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	se, release := holdEval(t, srv, mreq)

	jobsBefore = obs.EngineJobsTotal.Value()
	coalBefore := obs.CoalescedRequestsTotal.Value()

	// Six concurrent identical requests: two NDJSON, two buffered, two
	// wire. The response encoding is not part of the coalescing
	// identity, so all six must share one evaluation.
	var wg sync.WaitGroup
	bodies := make([][]byte, 6)
	ctypes := make([]string, 6)
	for i := 0; i < 6; i++ {
		r := req
		switch i / 2 {
		case 0:
			r.Stream = true
		case 2:
			r.Format = "wire"
		}
		body, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d: read: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, data)
				return
			}
			bodies[i] = data
			ctypes[i] = resp.Header.Get("Content-Type")
		}(i, body)
	}

	// All six must be attached before the evaluation starts.
	waitFor(t, "six subscribers to join", func() bool { return subscribers(se) == 7 })
	release()
	wg.Wait()

	if got := obs.EngineJobsTotal.Value() - jobsBefore; got != refJobs {
		t.Errorf("coalesced fan-in ran %d engine jobs, single request runs %d", got, refJobs)
	}
	if got := obs.CoalescedRequestsTotal.Value() - coalBefore; got != 6 {
		t.Errorf("CoalescedRequestsTotal advanced by %d, want 6", got)
	}

	// Same-mode responses are byte-identical...
	for _, pair := range [][2]int{{0, 1}, {2, 3}, {4, 5}} {
		if !bytes.Equal(bodies[pair[0]], bodies[pair[1]]) {
			t.Errorf("subscribers %d and %d received different bodies", pair[0], pair[1])
		}
	}
	// ...and the three encodings agree row for row: wire rows decode to
	// the NDJSON lines, the buffered document holds the same scenarios.
	rd, err := wire.NewReader(bytes.NewReader(bodies[4]))
	if err != nil {
		t.Fatal(err)
	}
	var wireLines [][]byte
	for {
		sc, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		line, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		wireLines = append(wireLines, line)
	}
	var buffered EvalResponse
	if err := json.Unmarshal(bodies[2], &buffered); err != nil {
		t.Fatal(err)
	}
	ndjson := bytes.Split(bytes.TrimSpace(bodies[0]), []byte("\n"))
	want := len(req.Mixes) * len(req.Configs)
	if len(ndjson) != want || len(wireLines) != want || len(buffered.Scenarios) != want {
		t.Fatalf("row counts: ndjson=%d wire=%d buffered=%d, want %d",
			len(ndjson), len(wireLines), len(buffered.Scenarios), want)
	}
	for i := range ndjson {
		if !bytes.Equal(ndjson[i], wireLines[i]) {
			t.Errorf("row %d: ndjson %s != wire %s", i, ndjson[i], wireLines[i])
		}
		bline, err := json.Marshal(buffered.Scenarios[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ndjson[i], bline) {
			t.Errorf("row %d: ndjson %s != buffered %s", i, ndjson[i], bline)
		}
	}
}

// TestCoalescedSubscriberCancel: one subscriber abandoning a shared
// evaluation must not cancel it for the others — only the last
// subscriber's departure stops the job.
func TestCoalescedSubscriberCancel(t *testing.T) {
	req := coalTestRequest()
	req.Stream = true
	srv, ts := newCoalServer(t)
	mreq, err := BuildRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	se, release := holdEval(t, srv, mreq)

	body, _ := json.Marshal(req)
	victimCtx, cancelVictim := context.WithCancel(context.Background())
	defer cancelVictim()
	victimErr := make(chan error, 1)
	go func() {
		hreq, _ := http.NewRequestWithContext(victimCtx, http.MethodPost,
			ts.URL+"/v1/eval", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(hreq)
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		victimErr <- err
		close(victimErr)
	}()

	var wg sync.WaitGroup
	survivors := make([][]byte, 2)
	for i := range survivors {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("survivor %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			survivors[i], _ = io.ReadAll(resp.Body)
		}(i)
	}

	waitFor(t, "three subscribers to join", func() bool { return subscribers(se) == 4 })

	// Cancel the victim before any row exists; its handler observes its
	// own context, leaves, and the shared job must stay alive.
	cancelVictim()
	waitFor(t, "victim to leave", func() bool { return subscribers(se) == 3 })
	if se.ctx.Err() != nil {
		t.Fatal("a single subscriber's cancellation cancelled the shared evaluation")
	}

	release()
	wg.Wait()
	<-victimErr

	want := len(req.Mixes) * len(req.Configs)
	for i, b := range survivors {
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		if len(lines) != want {
			t.Errorf("survivor %d received %d rows, want %d", i, len(lines), want)
		}
	}
	if !bytes.Equal(survivors[0], survivors[1]) {
		t.Error("survivors received different streams")
	}
}

// TestCoalescedMidStreamCancel: a subscriber disconnecting after rows
// have flowed leaves the remaining subscribers' streams intact.
func TestCoalescedMidStreamCancel(t *testing.T) {
	req := coalTestRequest()
	req.Stream = true
	srv, ts := newCoalServer(t)
	mreq, err := BuildRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	se, release := holdEval(t, srv, mreq)

	body, _ := json.Marshal(req)
	victimCtx, cancelVictim := context.WithCancel(context.Background())
	defer cancelVictim()
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		hreq, _ := http.NewRequestWithContext(victimCtx, http.MethodPost,
			ts.URL+"/v1/eval", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		// Read exactly one row, then hang up mid-stream.
		if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err == nil {
			cancelVictim()
		}
	}()

	survivor := make(chan []byte, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/eval", "application/json", bytes.NewReader(body))
		if err != nil {
			survivor <- nil
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		survivor <- b
	}()

	waitFor(t, "two subscribers to join", func() bool { return subscribers(se) == 3 })
	release()
	<-victimDone

	b := <-survivor
	want := len(req.Mixes) * len(req.Configs)
	if lines := bytes.Split(bytes.TrimSpace(b), []byte("\n")); len(lines) != want {
		t.Fatalf("survivor received %d rows after mid-stream cancel, want %d", len(lines), want)
	}
}

// TestCoalescedErrorPropagation: a stream-level producer failure
// reaches every attached subscriber, each already-delivered row first.
func TestCoalescedErrorPropagation(t *testing.T) {
	c := &coalescer{inflight: make(map[string]*sharedEval)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	se := &sharedEval{key: "k", c: c, ctx: ctx, cancel: cancel,
		notify: make(chan struct{}), subs: 3}
	c.inflight["k"] = se

	boom := errors.New("engine exploded")
	results := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			if _, ev, err := se.next(context.Background(), 0); ev != evRow || err != nil {
				results <- fmt.Errorf("next(0) = %v, %v; want a row", ev, err)
				return
			}
			_, ev, err := se.next(context.Background(), 1)
			if ev != evErr {
				results <- fmt.Errorf("next(1) = %v, %v; want evErr", ev, err)
				return
			}
			results <- err
		}()
	}

	se.append(ScenarioResult{Mix: []string{"a"}, Config: "c"})
	se.finish(boom)

	for i := 0; i < 3; i++ {
		if err := <-results; !errors.Is(err, boom) {
			t.Fatalf("subscriber %d: %v, want the producer's error", i, err)
		}
	}
	if c.inflight["k"] != nil {
		t.Fatal("failed evaluation still occupies its identity slot")
	}
}

// TestCoalescedLagKickAndSeal: trimming the replay log kicks subscribers
// that fell behind and seals the evaluation against new joins — a late
// identical request starts a fresh job instead of receiving a stream
// with a hole in it.
func TestCoalescedLagKickAndSeal(t *testing.T) {
	saved := maxSpillRows
	maxSpillRows = 4
	defer func() { maxSpillRows = saved }()

	c := &coalescer{inflight: make(map[string]*sharedEval)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	se := &sharedEval{key: "k", c: c, ctx: ctx, cancel: cancel,
		notify: make(chan struct{}), subs: 1}
	c.inflight["k"] = se

	for i := 0; i < 10; i++ {
		se.append(ScenarioResult{Config: strconv.Itoa(i)})
	}
	se.mu.Lock()
	sealed, base := se.sealed, se.base
	se.mu.Unlock()
	if !sealed || base == 0 {
		t.Fatalf("log not trimmed after 10 appends with window 4 (sealed=%v base=%d)", sealed, base)
	}

	// A reader still at row 0 fell out of the window: kicked, not stalled.
	if _, ev, err := se.next(context.Background(), 0); ev != evLagged || !errors.Is(err, errFellBehind) {
		t.Fatalf("next(0) on trimmed log = %v, %v; want evLagged", ev, err)
	}
	// In-window rows still replay, by global index.
	row, ev, err := se.next(context.Background(), base)
	if ev != evRow || err != nil {
		t.Fatalf("next(%d) = %v, %v; want a row", base, ev, err)
	}
	if row.Config != strconv.Itoa(base) {
		t.Fatalf("row at global index %d has Config %q", base, row.Config)
	}

	// joinEval must refuse the sealed evaluation and start a fresh one.
	// Pin the sealed evaluation under the request's real identity key to
	// force the collision.
	sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(testTraceLen, testInterval))
	srv := New(sys)
	mreq, err := BuildRequest(EvalRequest{Kind: "predict", Mixes: [][]string{{"gamess"}}})
	if err != nil {
		t.Fatal(err)
	}
	se.key = srv.evalIdentity(mreq)
	se.c = &srv.coal
	srv.coal.inflight[se.key] = se
	coalBefore := obs.CoalescedRequestsTotal.Value()
	fresh := srv.joinEval(httptest.NewRequest(http.MethodPost, "/v1/eval", nil), mreq)
	defer fresh.leave()
	if fresh == se {
		t.Fatal("joinEval attached to a sealed evaluation")
	}
	if got := obs.CoalescedRequestsTotal.Value() - coalBefore; got != 0 {
		t.Fatalf("sealed join counted as coalesced (%d)", got)
	}
	// Drain the fresh producer so the goroutine finishes before cleanup.
	for idx := 0; ; idx++ {
		if _, ev, _ := se2Next(fresh, idx); ev != evRow {
			break
		}
	}
}

func se2Next(se *sharedEval, idx int) (ScenarioResult, coalEvent, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return se.next(ctx, idx)
}

// TestCoalescedConcurrentStress hammers the broadcast log under -race:
// a fast producer, a pack of subscribers at different speeds, some
// cancelling mid-stream, a tiny replay window forcing lag kicks. Every
// subscriber must terminate with a coherent outcome and every row it
// saw must be the row its index names.
func TestCoalescedConcurrentStress(t *testing.T) {
	saved := maxSpillRows
	maxSpillRows = 8
	defer func() { maxSpillRows = saved }()

	const rows, readers = 2000, 8
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := &coalescer{inflight: make(map[string]*sharedEval)}
	se := &sharedEval{key: "stress", c: c, ctx: ctx, cancel: cancel,
		notify: make(chan struct{}), subs: readers}
	c.inflight["stress"] = se

	var wg sync.WaitGroup
	outcomes := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rctx := context.Background()
			var rcancel context.CancelFunc
			if i%4 == 3 { // some subscribers hang up partway
				rctx, rcancel = context.WithCancel(rctx)
				defer rcancel()
			}
			for idx := 0; ; idx++ {
				row, ev, err := se.next(rctx, idx)
				switch ev {
				case evRow:
					if row.Config != strconv.Itoa(idx) {
						outcomes[i] = fmt.Errorf("row %d carried Config %q", idx, row.Config)
						return
					}
					if rcancel != nil && idx == 40 {
						rcancel()
					}
					if i%2 == 1 && idx%16 == 0 {
						time.Sleep(time.Millisecond) // slow reader: provoke lag kicks
					}
				case evEnd:
					return
				case evErr:
					outcomes[i] = fmt.Errorf("unexpected stream error: %v", err)
					return
				case evLagged, evGone:
					return // legitimate terminal outcomes under stress
				}
			}
		}(i)
	}

	for i := 0; i < rows; i++ {
		se.append(ScenarioResult{Config: strconv.Itoa(i)})
	}
	se.finish(nil)
	wg.Wait()

	for i, err := range outcomes {
		if err != nil {
			t.Errorf("reader %d: %v", i, err)
		}
	}
}

// flushRecorder is a ResponseWriter that records which bytes each Flush
// would have put on the socket.
type flushRecorder struct {
	mu      sync.Mutex
	header  http.Header
	buf     bytes.Buffer
	flushed int // buf length at the last Flush
	flushes int
}

func newFlushRecorder() *flushRecorder { return &flushRecorder{header: make(http.Header)} }

func (f *flushRecorder) Header() http.Header { return f.header }
func (f *flushRecorder) WriteHeader(int)     {}

func (f *flushRecorder) Write(b []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.buf.Write(b)
}

func (f *flushRecorder) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushed = f.buf.Len()
	f.flushes++
}

// state returns a copy of the flushed bytes, everything written and the
// flush count.
func (f *flushRecorder) state() (flushed, all []byte, flushes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	all = bytes.Clone(f.buf.Bytes())
	return all[:f.flushed], all, f.flushes
}

// wireRows counts the whole row frames in a (possibly unfinished) wire
// stream prefix.
func wireRows(b []byte) int {
	r, err := wire.NewReader(bytes.NewReader(b))
	if err != nil {
		return 0
	}
	n := 0
	for {
		if _, err := r.Next(); err != nil {
			return n
		}
		n++
	}
}

// TestCoalescedFlushWhenCaughtUp pins the streaming writers' flush rule:
// a row the producer appended reaches the socket as soon as the writer
// has nothing more to write, and rows that are already there when the
// writer gets to them share a flush instead of paying one each.
func TestCoalescedFlushWhenCaughtUp(t *testing.T) {
	mixes := [][]string{{"gamess", "lbm"}, {"mcf", "milc"}, {"soplex", "namd"}, {"lbm", "mcf"}}
	mreq, err := BuildRequest(EvalRequest{Mixes: mixes, Configs: []string{"config#1"}})
	if err != nil {
		t.Fatal(err)
	}
	row := func(i int) ScenarioResult {
		m := mixes[i%len(mixes)]
		return ScenarioResult{Mix: m, Config: "config#1", Prediction: &Metrics{
			Benchmarks: m, SingleCPI: []float64{1, 2}, MultiCPI: []float64{1.5, 2.5},
			Slowdown: []float64{1.5, 1.25}, STP: 1.47, ANTT: 1.375, Iterations: i,
		}}
	}
	srv := &Server{} // the writers only read the request's own configs
	modes := []struct {
		name  string
		serve func(http.ResponseWriter, *http.Request, *sharedEval)
		rows  func([]byte) int
	}{
		{"ndjson", serveCoalescedNDJSON, func(b []byte) int { return bytes.Count(b, []byte{'\n'}) }},
		{"wire", func(w http.ResponseWriter, r *http.Request, se *sharedEval) {
			srv.serveCoalescedWire(w, r, se, mreq)
		}, wireRows},
	}
	newShared := func() *sharedEval {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		c := &coalescer{inflight: make(map[string]*sharedEval)}
		return &sharedEval{key: "k", c: c, ctx: ctx, cancel: cancel,
			notify: make(chan struct{}), subs: 1}
	}
	for _, m := range modes {
		t.Run(m.name+"/incremental", func(t *testing.T) {
			se := newShared()
			rec := newFlushRecorder()
			done := make(chan struct{})
			go func() {
				defer close(done)
				m.serve(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", nil), se)
			}()
			for k := range mixes {
				se.append(row(k))
				// The producer pauses here: row k must be on the socket.
				waitFor(t, fmt.Sprintf("row %d flushed", k), func() bool {
					flushed, _, _ := rec.state()
					return m.rows(flushed) == k+1
				})
			}
			se.finish(nil)
			<-done
			if _, all, _ := rec.state(); m.rows(all) != len(mixes) {
				t.Fatalf("stream holds %d rows, want %d", m.rows(all), len(mixes))
			}
		})
		t.Run(m.name+"/prefilled", func(t *testing.T) {
			const n = 64
			se := newShared()
			for i := 0; i < n; i++ {
				se.append(row(i))
			}
			se.finish(nil)
			rec := newFlushRecorder()
			m.serve(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", nil), se)
			_, all, flushes := rec.state()
			if got := m.rows(all); got != n {
				t.Fatalf("stream holds %d rows, want %d", got, n)
			}
			if flushes > 1 {
				t.Fatalf("%d ready rows cost %d flushes, want at most 1", n, flushes)
			}
		})
	}
}
