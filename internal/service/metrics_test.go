package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	mppm "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// newObsServer builds a test server with extra system and server
// options (newTestServer keeps the historical zero-option shape).
func newObsServer(t *testing.T, sysOpts []mppm.SystemOption, srvOpts ...Option) (*httptest.Server, *mppm.System) {
	t.Helper()
	opts := append([]mppm.SystemOption{mppm.WithScale(testTraceLen, testInterval)}, sysOpts...)
	sys := mppm.NewSystem(mppm.DefaultLLC(), opts...)
	ts := httptest.NewServer(New(sys, srvOpts...).Handler())
	t.Cleanup(ts.Close)
	return ts, sys
}

// scrape fetches /metrics and fails the test on a non-200 or an
// exposition that does not lint clean.
func scrape(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metricsContentType {
		t.Fatalf("content type %q, want %q", ct, metricsContentType)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(data)
	if errs := obs.Lint(strings.NewReader(body)); len(errs) > 0 {
		t.Fatalf("exposition does not lint clean: %v", errs)
	}
	return body
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newObsServer(t, nil)

	// A first scrape — before any traffic — must already lint clean.
	body := scrape(t, ts.URL)
	for _, family := range []string{
		"mppm_engine_recordings_computed_total",
		"mppm_engine_profiles_computed_total",
		"mppm_engine_simulations_computed_total",
		"mppm_engine_cached_profiles",
		"mppm_engine_jobs_total",
		"mppm_engine_job_run_seconds_bucket",
		"mppm_coalesced_requests_total",
		"mppm_wire_rows_total",
		"mppm_wire_bytes_in_total",
		"mppm_wire_bytes_out_total",
		"mppm_http_requests_total",
		"mppm_http_in_flight_requests",
		"mppm_http_request_duration_seconds_bucket",
		"mppm_process_uptime_seconds",
		"go_goroutines",
		"go_memstats_heap_alloc_bytes",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("exposition missing %s", family)
		}
	}
	if strings.Contains(body, "mppm_store_") {
		t.Error("store families emitted without a configured store")
	}

	// Traffic shows up in the per-route counters on the next scrape.
	resp, _ := postJSON(t, ts.URL+"/v1/eval", EvalRequest{
		Mix: []string{"gamess", "lbm"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	body = scrape(t, ts.URL)
	if !strings.Contains(body, `mppm_http_requests_total{route="/v1/eval",code="2xx"} 1`) {
		t.Errorf("eval request not counted:\n%s", body)
	}
	if !strings.Contains(body, `mppm_engine_jobs_total`) {
		t.Errorf("engine job counter missing after traffic")
	}
}

func TestMetricsWithStore(t *testing.T) {
	ts, _ := newObsServer(t, []mppm.SystemOption{mppm.WithStore(t.TempDir())})
	resp, _ := postJSON(t, ts.URL+"/v1/eval", EvalRequest{
		Mix: []string{"gamess", "lbm"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict status %d", resp.StatusCode)
	}
	body := scrape(t, ts.URL)
	for _, family := range []string{
		"mppm_store_recording_hits_total",
		"mppm_store_profile_misses_total",
		"mppm_store_saves_total",
		"mppm_store_bytes_loaded_total",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("exposition missing %s", family)
		}
	}
}

// TestWireMetricsCount: binary-protocol traffic moves the wire
// instrument families — rows emitted, bytes in (request documents) and
// bytes out (response streams) — by exactly the observed exchange.
func TestWireMetricsCount(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	req := EvalRequest{Kind: "predict", Mixes: [][]string{{"gamess", "lbm"}, {"mcf", "milc"}}, Format: "wire"}
	doc := wire.EncodeRequest(req)

	rowsBefore := obs.WireRowsTotal.Value()
	inBefore := obs.WireBytesInTotal.Value()
	outBefore := obs.WireBytesOutTotal.Value()

	resp, err := http.Post(ts.URL+"/v1/eval", wire.ContentType, bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	stream, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, stream)
	}

	if got := obs.WireRowsTotal.Value() - rowsBefore; got != 2 {
		t.Errorf("WireRowsTotal advanced by %d, want 2", got)
	}
	if got := obs.WireBytesInTotal.Value() - inBefore; got != uint64(len(doc)) {
		t.Errorf("WireBytesInTotal advanced by %d, request document is %d bytes", got, len(doc))
	}
	if got := obs.WireBytesOutTotal.Value() - outBefore; got != uint64(len(stream)) {
		t.Errorf("WireBytesOutTotal advanced by %d, response stream is %d bytes", got, len(stream))
	}
}

// TestConcurrentMetricsScrape hammers /metrics while a sweep is in
// flight; under -race this proves scrapes are safe against live
// engine, store and HTTP instrument updates.
func TestConcurrentMetricsScrape(t *testing.T) {
	ts, _ := newObsServer(t, []mppm.SystemOption{mppm.WithStore(t.TempDir())})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, data := postJSON(t, ts.URL+"/v1/eval", EvalRequest{
			Mixes: [][]string{
				{"gamess", "lbm", "soplex", "mcf"},
				{"povray", "milc"},
				{"gamess", "mcf"},
				{"lbm", "soplex"},
			},
			Configs: []string{"config#1", "config#2"},
		})
		if resp.StatusCode != http.StatusOK {
			t.Errorf("eval status %d: %s", resp.StatusCode, data)
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	scrapes := 0
	for {
		select {
		case <-done:
			if scrapes == 0 {
				scrape(t, ts.URL) // at least one scrape even if eval won
			}
			return
		default:
			scrape(t, ts.URL)
			scrapes++
		}
	}
}

func TestHealthzV1(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/healthz: status %d, want 200", resp.StatusCode)
	}
}

// TestRetiredRoutes: the pre-/v1/eval endpoints and the unversioned
// health alias are gone — 404 from the handler, and no route label
// for them in the pre-registered /metrics series.
func TestRetiredRoutes(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	retired := []struct{ method, path string }{
		{http.MethodPost, "/v1/predict"},
		{http.MethodPost, "/v1/simulate"},
		{http.MethodPost, "/v1/sweep"},
		{http.MethodGet, "/healthz"},
	}
	for _, rt := range retired {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, strings.NewReader(`{"mix":["gamess","lbm"]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", rt.method, rt.path, resp.StatusCode)
		}
	}
	body := scrape(t, ts.URL)
	if !strings.Contains(body, `route="/v1/eval"`) {
		t.Fatal("exposition carries no per-route series; the check below would be vacuous")
	}
	for _, rt := range retired {
		if label := `route="` + rt.path + `"`; strings.Contains(body, label) {
			t.Errorf("/metrics still carries %s", label)
		}
	}
}

func TestReadyz(t *testing.T) {
	ts, _ := newObsServer(t, []mppm.SystemOption{mppm.WithStore(t.TempDir())})
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/readyz: status %d, want 200", resp.StatusCode)
	}
}

func TestReadyzStoreFailure(t *testing.T) {
	// A store rooted under a plain file cannot create its version
	// directory: readiness must fail while liveness stays green.
	dir := t.TempDir()
	file := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ts, _ := newObsServer(t, []mppm.SystemOption{mppm.WithStore(file)})

	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET /v1/readyz: status %d, want 503", resp.StatusCode)
	}
	live, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	live.Body.Close()
	if live.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz: status %d, want 200", live.StatusCode)
	}
}

func TestPprofGated(t *testing.T) {
	off, _ := newObsServer(t, nil)
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without WithPprof: status %d, want 404", resp.StatusCode)
	}

	on, _ := newObsServer(t, nil, WithPprof())
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with WithPprof: status %d, want 200", resp.StatusCode)
	}
}
