package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	mppm "repro"
	"repro/internal/obs"
)

// withTraceSampling turns span sampling on for one test and restores
// the off state and an empty recorder afterwards.
func withTraceSampling(t *testing.T, rate float64) {
	t.Helper()
	obs.SetTraceSampleRate(rate)
	obs.ResetTraces()
	t.Cleanup(func() {
		obs.SetTraceSampleRate(0)
		obs.ResetTraces()
	})
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestTraceEndpointsGated pins the security posture: the debug trace
// surface is absent (404, exactly like pprof) unless the server was
// built with WithTraceDebug.
func TestTraceEndpointsGated(t *testing.T) {
	withTraceSampling(t, 1)
	sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(testTraceLen, testInterval))
	ts := httptest.NewServer(New(sys).Handler())
	t.Cleanup(ts.Close)

	for _, path := range []string{"/v1/debug/traces", "/v1/debug/traces/deadbeef"} {
		resp, _ := getBody(t, ts.URL+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s without WithTraceDebug: status %d, want 404", path, resp.StatusCode)
		}
	}

	ts2 := httptest.NewServer(New(sys, WithTraceDebug()).Handler())
	t.Cleanup(ts2.Close)
	resp, body := getBody(t, ts2.URL+"/v1/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/debug/traces with WithTraceDebug: status %d: %s", resp.StatusCode, body)
	}
	var idx TraceIndexResponse
	if err := json.Unmarshal(body, &idx); err != nil {
		t.Fatalf("undecodable index: %v", err)
	}
}

// waitForTrace polls the per-trace endpoint until it serves the trace;
// the root span is recorded after the response is written, so a client
// that just received its X-Mppm-Trace-Id may be a moment early.
func waitForTrace(t *testing.T, base, traceID string) TraceResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, body := getBody(t, base+"/v1/debug/traces/"+traceID)
		if resp.StatusCode == http.StatusOK {
			var tr TraceResponse
			if err := json.Unmarshal(body, &tr); err != nil {
				t.Fatalf("undecodable trace: %v", err)
			}
			return tr
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared: status %d: %s", traceID, resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTracedEvalEndToEnd drives one sampled evaluation through the full
// HTTP stack and checks the recorded tree: the response names its trace
// (X-Mppm-Trace-Id), the trace is served from the debug endpoint, and
// it contains the service root plus engine and sim child spans, all
// correctly parented.
func TestTracedEvalEndToEnd(t *testing.T) {
	withTraceSampling(t, 1)
	sys := mppm.NewSystem(mppm.DefaultLLC(),
		mppm.WithScale(testTraceLen, testInterval), mppm.WithStore(t.TempDir()))
	ts := httptest.NewServer(New(sys, WithTraceDebug()).Handler())
	t.Cleanup(ts.Close)

	resp, data := postJSON(t, ts.URL+"/v1/eval", EvalRequest{
		Mix: []string{"gamess", "lbm", "soplex", "mcf"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval status %d: %s", resp.StatusCode, data)
	}
	traceID := resp.Header.Get(obs.TraceIDHeader)
	if traceID == "" {
		t.Fatal("sampled response missing X-Mppm-Trace-Id")
	}
	if resp.Header.Get(obs.RequestIDHeader) == "" {
		t.Fatal("response missing X-Mppm-Request-Id")
	}

	tr := waitForTrace(t, ts.URL, traceID)
	byID := make(map[string]SpanJSON, len(tr.Spans))
	names := make(map[string]int, len(tr.Spans))
	for _, sp := range tr.Spans {
		if sp.TraceID != traceID {
			t.Fatalf("span %s carries trace %q, want %q", sp.Name, sp.TraceID, traceID)
		}
		byID[sp.SpanID] = sp
		names[sp.Name]++
	}
	for _, want := range []string{"POST /v1/eval", "engine.queue", "engine.run", "sim.record", "store.load"} {
		if names[want] == 0 {
			t.Fatalf("trace missing %q span; got %v", want, names)
		}
	}
	roots := 0
	for _, sp := range tr.Spans {
		if sp.Parent == "" {
			roots++
			continue
		}
		if _, ok := byID[sp.Parent]; !ok {
			t.Fatalf("span %s has dangling parent %q", sp.Name, sp.Parent)
		}
	}
	if roots != 1 {
		t.Fatalf("trace has %d roots, want 1", roots)
	}
}

// TestConcurrentTraceReadsDuringSweep hammers the trace debug surface
// while coalesced streaming evaluations are live — the -race guard for
// the flight recorder's read paths against concurrent span recording.
func TestConcurrentTraceReadsDuringSweep(t *testing.T) {
	withTraceSampling(t, 1)
	sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(testTraceLen, testInterval))
	ts := httptest.NewServer(New(sys, WithTraceDebug()).Handler())
	t.Cleanup(ts.Close)

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + "/v1/debug/traces")
				if err != nil {
					continue
				}
				var idx TraceIndexResponse
				_ = json.NewDecoder(resp.Body).Decode(&idx)
				resp.Body.Close()
				for _, s := range idx.Recent {
					r2, err := http.Get(ts.URL + "/v1/debug/traces/" + s.TraceID)
					if err == nil {
						_, _ = io.Copy(io.Discard, r2.Body)
						r2.Body.Close()
					}
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for i := range 6 {
		writers.Add(1)
		go func() {
			defer writers.Done()
			// Three request shapes: two coalescing pairs and stragglers.
			req := coalTestRequest()
			req.Stream = true
			if i%3 == 2 {
				req.Configs = []string{"config#3"}
			}
			resp, body := postJSON(t, ts.URL+"/v1/eval", req)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("eval status %d: %s", resp.StatusCode, body)
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	recent, _, _ := obs.TraceIndex()
	if len(recent) == 0 {
		t.Fatal("no traces recorded by the sweep")
	}
	var joins int
	for _, s := range recent {
		for _, sp := range obs.TraceSpans(s.TraceID) {
			if sp.Name == "coalesce.join" {
				joins++
				if sp.Attrs[0].Key != "shared_trace" {
					t.Fatalf("coalesce.join span missing shared_trace attr: %+v", sp.Attrs)
				}
			}
		}
	}
	t.Logf("sweep recorded %d traces, %d coalesce joins", len(recent), joins)
}

// TestTraceMetricsExposed checks the span-derived families appear in
// the exposition with the per-component histogram labels.
func TestTraceMetricsExposed(t *testing.T) {
	withTraceSampling(t, 1)
	sys := mppm.NewSystem(mppm.DefaultLLC(), mppm.WithScale(testTraceLen, testInterval))
	ts := httptest.NewServer(New(sys, WithTraceDebug()).Handler())
	t.Cleanup(ts.Close)

	resp, data := postJSON(t, ts.URL+"/v1/eval", EvalRequest{Mix: []string{"gamess", "lbm"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval status %d: %s", resp.StatusCode, data)
	}
	_, body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"mppm_trace_spans_total",
		"mppm_trace_spans_dropped_total",
		"mppm_trace_span_duration_seconds_bucket",
		`component="engine"`,
		`component="service"`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
}
