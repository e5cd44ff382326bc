// Package service exposes the evaluation API as a JSON-over-HTTP
// prediction service — the network face of the paper's headline
// property that MPPM evaluates a multi-program mix in milliseconds
// where detailed simulation takes hours.
//
// Endpoints (all JSON unless noted):
//
//	GET  /v1/healthz     liveness probe
//	GET  /v1/readyz      readiness probe: engine built, store usable (503 when not)
//	GET  /metrics        Prometheus text exposition (engine, store, HTTP, runtime)
//	GET  /v1/version     build, codec format and Go versions (fleet skew gate)
//	GET  /v1/benchmarks  the synthetic suite, LLC configs, contention models
//	GET  /v1/stats       engine + artifact-store hit/miss/load counters
//	POST /v1/eval        the canonical endpoint: any kind, mixes x configs, top-k;
//	                     "stream": true switches the response to NDJSON — one
//	                     scenario per line in grid order, flushed whenever the
//	                     writer has caught up with the evaluation (rows that
//	                     complete together share one flush)
//	GET  /v1/artifacts/{kind}/{key}  raw artifact bytes (fleet peer exchange)
//	POST /v1/warmup      pre-compute suite profiles for a set of LLC configs
//
// Every route is wrapped in obs.HTTPMetrics middleware: a request ID is
// stamped into the context (propagating through System.Eval into engine
// job traces), an in-flight gauge is held for the duration, and the
// per-route request counters and latency histograms behind /metrics are
// updated on the way out. WithPprof additionally mounts the stdlib
// net/http/pprof handlers under /debug/pprof/ (off by default: the
// profile endpoints can pause the process and belong behind a flag).
//
// /v1/eval is the only evaluation endpoint: it decodes the wire shape
// (EvalRequest), builds one mppm.Request and executes it through
// System.Eval, so the service is a thin adapter over the exact API
// library users call: one shared worker pool, one singleflight profile
// cache, request cancellation (client disconnect) propagating into the
// engine.
//
// Errors map onto status codes through the mppm error taxonomy:
// ErrUnknownBenchmark → 404, ErrEmptyMix/ErrBadConfig/ErrNoProfiles →
// 400, cancellation → 503, anything else (solver failure) → 500.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	mppm "repro"
	"repro/internal/contention"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/codec"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Request limits. The body cap alone would admit sweeps of ~80k mixes,
// so mix width, mix count and config count are bounded explicitly to
// keep one request from monopolizing the shared worker pool.
const (
	maxRequestBytes = 8 << 20
	maxMixWidth     = 64   // programs per mix (paper max is 16 cores)
	maxSweepMixes   = 2048 // mixes per request
	maxSweepConfigs = 16   // LLC configs per request
)

// routes is the service's fixed route set — the label space of the
// per-route HTTP metrics. Adding an endpoint means adding it here and
// in Handler.
var routes = []string{
	"/v1/healthz", "/v1/readyz", "/metrics",
	"/v1/version", "/v1/benchmarks", "/v1/stats", "/v1/artifacts",
	"/v1/eval", "/v1/warmup", "/v1/debug/traces",
}

// Server serves the prediction API from one shared evaluation system.
type Server struct {
	sys    *mppm.System
	httpm  *obs.HTTPMetrics
	start  time.Time
	pprof  bool
	traces bool
	fleet  bool
	coal   coalescer
}

// Option configures a Server at construction.
type Option func(*Server)

// WithPprof mounts the stdlib net/http/pprof handlers under
// /debug/pprof/ on the service mux. Off by default: CPU profiles and
// execution traces perturb the process they measure.
func WithPprof() Option {
	return func(s *Server) { s.pprof = true }
}

// WithTraceDebug mounts the flight-recorder read endpoints
// (GET /v1/debug/traces and /v1/debug/traces/{id}). Gated like pprof:
// trace timelines expose request internals, so an operator opts in
// (mppmd does when the trace sample rate is non-zero).
func WithTraceDebug() Option {
	return func(s *Server) { s.traces = true }
}

// WithFleetMetrics adds the fleet instrument families (shard dispatch,
// retries, failovers, peer fetches, merge stall) to /metrics. Off by
// default: a standalone replica without peers has no fleet tier, and
// absent families read cleaner than permanent zeros.
func WithFleetMetrics() Option {
	return func(s *Server) { s.fleet = true }
}

// New returns a Server over the given system.
func New(sys *mppm.System, opts ...Option) *Server {
	s := &Server{
		sys:   sys,
		httpm: obs.NewHTTPMetrics(routes...),
		start: time.Now(),
		coal:  coalescer{inflight: make(map[string]*sharedEval)},
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Metrics returns the server's HTTP instruments (exported for tests).
func (s *Server) Metrics() *obs.HTTPMetrics { return s.httpm }

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.httpm.Wrap(route, h))
	}
	handle("GET /v1/healthz", "/v1/healthz", s.handleHealthz)
	handle("GET /v1/readyz", "/v1/readyz", s.handleReadyz)
	handle("GET /metrics", "/metrics", s.handleMetrics)
	handle("GET /v1/version", "/v1/version", s.handleVersion)
	handle("GET /v1/benchmarks", "/v1/benchmarks", s.handleBenchmarks)
	handle("GET /v1/stats", "/v1/stats", s.handleStats)
	handle("GET /v1/artifacts/{kind}/{key}", "/v1/artifacts", s.handleArtifact)
	handle("POST /v1/eval", "/v1/eval", s.handleEval)
	handle("POST /v1/warmup", "/v1/warmup", s.handleWarmup)
	if s.traces {
		handle("GET /v1/debug/traces", "/v1/debug/traces", s.handleTraceIndex)
		handle("GET /v1/debug/traces/{id}", "/v1/debug/traces", s.handleTraceByID)
	}
	if s.pprof {
		// Uninstrumented on purpose: pprof traffic is an operator
		// debugging the process, not service load.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// jsonScratch is a pooled encode buffer: every response reuses a
// bytes.Buffer with a json.Encoder already bound to it, so the steady-
// state encode path allocates only what encoding/json itself needs for
// the payload. Encoding into the buffer (instead of straight to the
// ResponseWriter) also means an encode failure can still produce a
// well-formed 500 instead of a half-written body.
type jsonScratch struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonScratchPool = sync.Pool{New: func() any {
	s := &jsonScratch{}
	s.enc = json.NewEncoder(&s.buf)
	s.enc.SetIndent("", "  ")
	return s
}}

// maxPooledJSONBuf caps the buffers retained by the pool; a rare huge
// sweep response should not pin its buffer for the process lifetime.
const maxPooledJSONBuf = 1 << 20

// ndjsonScratchPool pools the compact per-row encoder the streaming
// paths use: one bytes.Buffer with a bound json.Encoder (no indent),
// shared across requests and rows instead of allocated per request —
// the steady-state row encode allocates only what encoding/json itself
// needs (see TestRowEncodeAllocs); the line lands in the caller's buffer.
var ndjsonScratchPool = sync.Pool{New: func() any {
	s := &jsonScratch{}
	s.enc = json.NewEncoder(&s.buf)
	return s
}}

// appendRowLine appends v encoded as one compact JSON line (trailing
// newline included) to dst, using the pooled row encoder.
func appendRowLine(dst []byte, v any) ([]byte, error) {
	s := ndjsonScratchPool.Get().(*jsonScratch)
	s.buf.Reset()
	if err := s.enc.Encode(v); err != nil {
		ndjsonScratchPool.Put(s)
		return dst, err
	}
	dst = append(dst, s.buf.Bytes()...)
	if s.buf.Cap() <= maxPooledJSONBuf {
		ndjsonScratchPool.Put(s)
	}
	return dst, nil
}

// MarshalScenarioLine encodes one scenario row exactly as the NDJSON
// stream emits it: compact JSON with a trailing newline. Exported for
// the fleet coordinator's stream emitter, which must reproduce replica
// lines byte for byte.
func MarshalScenarioLine(sc *ScenarioResult) ([]byte, error) {
	return appendRowLine(nil, sc)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	s := jsonScratchPool.Get().(*jsonScratch)
	s.buf.Reset()
	if err := s.enc.Encode(v); err != nil {
		if s.buf.Cap() <= maxPooledJSONBuf {
			jsonScratchPool.Put(s)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, `{"error":"response encoding failed"}`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(s.buf.Bytes()) // client gone; nothing useful to do
	if s.buf.Cap() <= maxPooledJSONBuf {
		jsonScratchPool.Put(s)
	}
}

// statusFor maps the mppm error taxonomy onto HTTP status codes.
func statusFor(err error) int {
	switch {
	case errors.Is(err, mppm.ErrUnknownBenchmark):
		return http.StatusNotFound
	case errors.Is(err, mppm.ErrEmptyMix),
		errors.Is(err, mppm.ErrBadConfig),
		errors.Is(err, mppm.ErrNoProfiles):
		return http.StatusBadRequest
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, statusFor(err), errorBody{Error: err.Error()})
}

// StatusForMessage maps a wire error message back onto the status the
// service would have used for the underlying error. The sentinel texts
// are the documented-stable suffixes of the mppm error taxonomy (see
// internal/mppmerr); it is exported for the fleet coordinator and used
// by the coalescer's buffered path, where only the row's error string
// survives.
func StatusForMessage(msg string) int {
	switch {
	case strings.Contains(msg, "unknown benchmark"):
		return http.StatusNotFound
	case strings.Contains(msg, "empty mix"),
		strings.Contains(msg, "invalid configuration"),
		strings.Contains(msg, "missing profiles"):
		return http.StatusBadRequest
	case strings.Contains(msg, context.Canceled.Error()),
		strings.Contains(msg, context.DeadlineExceeded.Error()):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

func badRequest(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
}

// DecodeJSON decodes exactly one JSON document from r into v, rejecting
// unknown fields and anything but whitespace after the document (the
// trailing newline json.Encoder and curl -d @file send is fine). It is
// exported so the fleet coordinator accepts exactly the bodies a
// replica accepts.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the JSON document")
		}
		return err
	}
	return nil
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := DecodeJSON(http.MaxBytesReader(w, r.Body, maxRequestBytes), v); err != nil {
		badRequest(w, fmt.Errorf("invalid request body: %w", err))
		return false
	}
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// BenchmarkInfo describes one suite benchmark.
type BenchmarkInfo struct {
	Name string `json:"name"`
}

// LLCInfo describes one Table 2 LLC configuration.
type LLCInfo struct {
	Name          string `json:"name"`
	SizeBytes     int64  `json:"size_bytes"`
	Ways          int    `json:"ways"`
	LineSize      int64  `json:"line_size"`
	LatencyCycles int    `json:"latency_cycles"`
}

// CatalogResponse is the /v1/benchmarks payload.
type CatalogResponse struct {
	Benchmarks       []BenchmarkInfo `json:"benchmarks"`
	LLCConfigs       []LLCInfo       `json:"llc_configs"`
	ContentionModels []string        `json:"contention_models"`
	TraceLength      int64           `json:"trace_length"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	resp := CatalogResponse{
		TraceLength: s.sys.TraceLength(),
	}
	for _, name := range trace.SuiteNames() {
		resp.Benchmarks = append(resp.Benchmarks, BenchmarkInfo{Name: name})
	}
	for _, c := range mppm.LLCConfigs() {
		resp.LLCConfigs = append(resp.LLCConfigs, LLCInfo{
			Name: c.Name, SizeBytes: c.SizeBytes, Ways: c.Ways,
			LineSize: c.LineSize, LatencyCycles: c.LatencyCycles,
		})
	}
	for _, m := range contention.Models() {
		resp.ContentionModels = append(resp.ContentionModels, m.Name())
	}
	writeJSON(w, http.StatusOK, resp)
}

// EvalRequest is the /v1/eval request shape, as JSON or as a binary
// wire.EncodeRequest document: it mirrors mppm.Request field for field,
// with mix/config as single-element shorthands for mixes/configs. The
// type lives in internal/wire next to its binary codec; the alias keeps
// the service API unchanged.
type EvalRequest = wire.EvalRequest

// BuildRequest validates the wire request and lowers it onto the shared
// mppm.Request. It is exported so the fleet coordinator validates
// requests with exactly this logic — a request the coordinator fans out
// and a request a replica serves locally must agree on every limit and
// default.
func BuildRequest(req EvalRequest) (mppm.Request, error) {
	var zero mppm.Request

	kind, err := mppm.KindByName(req.Kind)
	if err != nil {
		return zero, err
	}

	if len(req.Mix) > 0 && len(req.Mixes) > 0 {
		return zero, fmt.Errorf("set either mix or mixes, not both: %w", mppm.ErrBadConfig)
	}
	raw := req.Mixes
	if len(req.Mix) > 0 {
		raw = [][]string{req.Mix}
	}
	if len(raw) == 0 {
		return zero, fmt.Errorf("request names no mixes: %w", mppm.ErrEmptyMix)
	}
	if len(raw) > maxSweepMixes {
		return zero, fmt.Errorf("request has %d mixes, limit is %d: %w",
			len(raw), maxSweepMixes, mppm.ErrBadConfig)
	}
	mixes := make([]mppm.Mix, len(raw))
	for i, m := range raw {
		if len(m) == 0 {
			return zero, fmt.Errorf("mix %d is empty: %w", i, mppm.ErrEmptyMix)
		}
		if len(m) > maxMixWidth {
			return zero, fmt.Errorf("mix %d has %d programs, limit is %d: %w",
				i, len(m), maxMixWidth, mppm.ErrBadConfig)
		}
		mixes[i] = mppm.Mix(m)
	}

	if req.Config != "" && len(req.Configs) > 0 {
		return zero, fmt.Errorf("set either config or configs, not both: %w", mppm.ErrBadConfig)
	}
	names := req.Configs
	if req.Config != "" {
		names = []string{req.Config}
	}
	if len(names) > maxSweepConfigs {
		return zero, fmt.Errorf("request has %d configs, limit is %d: %w",
			len(names), maxSweepConfigs, mppm.ErrBadConfig)
	}
	var opts []mppm.Option
	if len(names) > 0 {
		configs := make([]mppm.LLCConfig, len(names))
		for i, name := range names {
			llc, err := mppm.LLCConfigByName(name)
			if err != nil {
				return zero, err
			}
			configs[i] = llc
		}
		opts = append(opts, mppm.WithConfigs(configs...))
	}

	if req.Contention != "" {
		m, err := contention.ByName(req.Contention)
		if err != nil {
			return zero, err
		}
		opts = append(opts, mppm.WithOptions(mppm.ModelOptions{Contention: m}))
	}
	if req.TopK < 0 {
		return zero, fmt.Errorf("negative top_k %d: %w", req.TopK, mppm.ErrBadConfig)
	}
	if req.TopK > 0 {
		opts = append(opts, mppm.WithTopK(req.TopK))
	}
	return mppm.NewRequest(kind, mixes, opts...), nil
}

// Metrics is the JSON shape of one evaluated side (model prediction or
// detailed simulation) of a scenario. Defined in internal/wire next to
// its binary row codec.
type Metrics = wire.Metrics

// ScenarioResult is one (mix, config) outcome of a /v1/eval response.
// Defined in internal/wire next to its binary row codec.
type ScenarioResult = wire.ScenarioResult

// EvalResponse is the /v1/eval payload.
type EvalResponse struct {
	Kind      string           `json:"kind"`
	Mixes     int              `json:"mixes"`
	Configs   []string         `json:"configs"`
	Scenarios []ScenarioResult `json:"scenarios"`
}

func predictionMetrics(p *mppm.Prediction) *Metrics {
	return &Metrics{
		Benchmarks: p.Benchmarks, SingleCPI: p.SingleCPI, MultiCPI: p.MultiCPI,
		Slowdown: p.Slowdown, STP: p.STP, ANTT: p.ANTT, Iterations: p.Iterations,
	}
}

func measurementMetrics(m *mppm.Measurement) *Metrics {
	return &Metrics{
		Benchmarks: m.Benchmarks, SingleCPI: m.SingleCPI, MultiCPI: m.MultiCPI,
		Slowdown: m.Slowdown, STP: m.STP, ANTT: m.ANTT,
	}
}

func toScenarioResult(sc *mppm.Scenario) ScenarioResult {
	out := ScenarioResult{Mix: sc.Mix, Config: sc.Config.Name}
	if sc.Err != nil {
		out.Error = sc.Err.Error()
		return out
	}
	if sc.Prediction != nil {
		out.Prediction = predictionMetrics(sc.Prediction)
	}
	if sc.Measurement != nil {
		out.Measurement = measurementMetrics(sc.Measurement)
	}
	if sc.Prediction != nil && sc.Measurement != nil {
		out.STPError = sc.STPError()
		out.ANTTError = sc.ANTTError()
	}
	return out
}

// evalMode is the negotiated /v1/eval response encoding.
type evalMode int

const (
	// modeBuffered is the classic JSON EvalResponse document.
	modeBuffered evalMode = iota
	// modeNDJSON streams one compact ScenarioResult JSON line per row.
	modeNDJSON
	// modeWire streams binary wire frames (implies streaming semantics).
	modeWire
)

// responseMode negotiates the response encoding: the body's format
// field ("json"/"wire") wins, then an Accept header naming the wire
// content type, then the stream flag. "wire" always streams — the
// binary format is a row stream by construction.
func responseMode(req *EvalRequest, r *http.Request) (evalMode, error) {
	switch req.Format {
	case "", "json":
	case "wire":
		return modeWire, nil
	default:
		return 0, fmt.Errorf("unknown format %q (want \"json\" or \"wire\")", req.Format)
	}
	if strings.Contains(r.Header.Get("Accept"), wire.ContentType) {
		return modeWire, nil
	}
	if req.Stream {
		return modeNDJSON, nil
	}
	return modeBuffered, nil
}

// handleEval is the canonical evaluation endpoint. Per-scenario
// failures are embedded in the response rows so a batch survives one
// bad mix, except when every scenario failed — then the first error's
// status is returned directly (e.g. 404 for a single unknown-benchmark
// mix). The request body is JSON or a binary wire document
// (Content-Type: application/x-mppm-wire); the response is buffered
// JSON, NDJSON ("stream": true) or the binary wire stream ("format":
// "wire" / Accept: application/x-mppm-wire). Identical concurrent
// requests coalesce onto one engine evaluation (see coalesce.go);
// top_k requests bypass coalescing because ranking reshapes the grid.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	var req EvalRequest
	if strings.Contains(r.Header.Get("Content-Type"), wire.ContentType) {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		if err != nil {
			badRequest(w, fmt.Errorf("invalid request body: %w", err))
			return
		}
		obs.WireBytesInTotal.Add(uint64(len(body)))
		if req, err = wire.DecodeRequest(body); err != nil {
			badRequest(w, fmt.Errorf("invalid request body: %w", err))
			return
		}
	} else if !decodeBody(w, r, &req) {
		return
	}
	mode, err := responseMode(&req, r)
	if err != nil {
		badRequest(w, err)
		return
	}
	mreq, err := BuildRequest(req)
	if err != nil {
		writeError(w, err)
		return
	}
	if mreq.TopK > 0 {
		// Ranking needs the full grid and reshapes the response; it is
		// served buffered and uncoalesced. Streaming a ranked grid is
		// rejected the way EvalStream always has (top_k needs the whole
		// grid before the first row could be emitted).
		if mode != modeBuffered {
			badRequest(w, fmt.Errorf("top_k is incompatible with stream and wire responses: %w",
				mppm.ErrBadConfig))
			return
		}
		s.bufferedEval(w, r, mreq)
		return
	}
	s.coalescedEval(w, r, mreq, mode)
}

// bufferedEval is the direct (uncoalesced) buffered path, kept for
// top_k requests.
func (s *Server) bufferedEval(w http.ResponseWriter, r *http.Request, mreq mppm.Request) {
	res, err := s.sys.Eval(r.Context(), mreq)
	if err != nil {
		writeError(w, err)
		return
	}
	allFailed := true
	for i := range res.Scenarios {
		if res.Scenarios[i].Err == nil {
			allFailed = false
			break
		}
	}
	if allFailed && len(res.Scenarios) > 0 {
		writeError(w, res.Err())
		return
	}
	resp := EvalResponse{Kind: res.Kind.String(), Mixes: len(res.Mixes)}
	for _, c := range res.Configs {
		resp.Configs = append(resp.Configs, c.Name)
	}
	for i := range res.Scenarios {
		resp.Scenarios = append(resp.Scenarios, toScenarioResult(&res.Scenarios[i]))
	}
	writeJSON(w, http.StatusOK, resp)
}

// ndjsonContentType is the streaming response content type: one JSON
// document per line.
const ndjsonContentType = "application/x-ndjson"

// VersionResponse is the /v1/version payload: everything a fleet peer
// needs to decide compatibility before exchanging artifacts or shards.
type VersionResponse struct {
	// Module and Version identify the build (module path and VCS-stamped
	// version; "devel" for an unstamped build).
	Module  string `json:"module"`
	Version string `json:"version"`
	// CodecFormatVersion is the artifact codec's on-disk/wire format
	// version. Fleet clients refuse peers whose codec version differs:
	// mixed-version rollouts must not exchange undecodable artifacts.
	CodecFormatVersion int `json:"codec_format_version"`
	// WireFormatVersion is the /v1/eval binary stream protocol version.
	// Unlike a codec skew, a wire skew is survivable: fleet clients fall
	// back to NDJSON shard transport instead of refusing the peer.
	WireFormatVersion int    `json:"wire_format_version"`
	GoVersion         string `json:"go_version"`
}

// handleVersion reports the build and format versions. The codec
// version is the load-bearing field: fleet peers gate artifact exchange
// and shard routing on it.
func (s *Server) handleVersion(w http.ResponseWriter, _ *http.Request) {
	resp := VersionResponse{
		Module:             "repro",
		Version:            "devel",
		CodecFormatVersion: codec.FormatVersion,
		WireFormatVersion:  wire.FormatVersion,
		GoVersion:          runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Path != "" {
			resp.Module = bi.Main.Path
		}
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			resp.Version = bi.Main.Version
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleArtifact serves one persisted artifact's raw encoded bytes —
// codec header, payload and trailing checksum exactly as stored — so a
// fleet peer can warm itself from this replica instead of recomputing.
// 404 covers both "no store configured" and "not persisted here": to
// the fetching peer they mean the same thing, try elsewhere.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if _, _, ok := s.sys.StoreStats(); !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no artifact store configured"})
		return
	}
	b, err := s.sys.ArtifactData(r.PathValue("kind"), r.PathValue("key"))
	if err != nil {
		switch {
		case errors.Is(err, store.ErrBadArtifactRef):
			badRequest(w, err)
		case errors.Is(err, fs.ErrNotExist):
			writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		}
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	_, _ = w.Write(b)
}

// EngineStatsJSON is the engine half of the /v1/stats payload: the
// cumulative computation counters (work actually done, as opposed to
// served from a cache tier) and the live in-memory cache sizes.
type EngineStatsJSON struct {
	RecordingsComputed  int64 `json:"recordings_computed"`
	ProfilesComputed    int64 `json:"profiles_computed"`
	SimulationsComputed int64 `json:"simulations_computed"`
	CachedRecordings    int   `json:"cached_recordings"`
	CachedProfiles      int   `json:"cached_profiles"`
	CachedSimulations   int   `json:"cached_simulations"`
}

// StoreStatsJSON is the artifact-store half of the /v1/stats payload.
type StoreStatsJSON struct {
	Dir string `json:"dir"`
	mppm.StoreStats
}

// StatsResponse is the /v1/stats payload. Store is omitted when the
// server runs without a persistent artifact store.
type StatsResponse struct {
	Engine EngineStatsJSON `json:"engine"`
	Store  *StoreStatsJSON `json:"store,omitempty"`
}

// handleStats reports the engine and store counters — the observability
// face of the caching stack: how much work this replica actually did,
// versus how much it served from memory or loaded from the store.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	es := s.sys.EngineStats()
	resp := StatsResponse{
		Engine: EngineStatsJSON{
			RecordingsComputed:  es.RecordingComputations,
			ProfilesComputed:    es.ProfileComputations,
			SimulationsComputed: es.SimulationComputations,
			CachedRecordings:    es.CachedRecordings,
			CachedProfiles:      es.CachedProfiles,
			CachedSimulations:   es.CachedSimulations,
		},
	}
	if ss, dir, ok := s.sys.StoreStats(); ok {
		resp.Store = &StoreStatsJSON{Dir: dir, StoreStats: ss}
	}
	writeJSON(w, http.StatusOK, resp)
}

// WarmupRequest is the /v1/warmup body: the LLC configurations to
// pre-profile the suite under. Empty means all Table 2 configurations.
type WarmupRequest struct {
	Configs []string `json:"configs,omitempty"`
}

// WarmupResponse reports what a warmup computed. Recordings counts the
// full profiling-frontend trace passes the engine completed while this
// request was in flight; with the record/replay pipeline it is at most
// about one per benchmark no matter how many configs were warmed, and
// zero when everything was already cached. The count is a delta of a
// process-wide counter, so concurrent warmups that share recordings via
// the singleflight cache may each report the shared passes.
type WarmupResponse struct {
	Profiles   int      `json:"profiles"`
	Configs    []string `json:"configs"`
	Recordings int64    `json:"recordings"`
	ElapsedMS  int64    `json:"elapsed_ms"`
}

// handleWarmup pre-computes the suite's single-core profiles for the
// requested LLC configurations — the cold-start path a deployment hits
// once at startup (see mppmd's -warm flag) instead of on first traffic.
// Each benchmark's frontend is recorded once and every config is a
// cheap replay, so warming all six Table 2 configs costs about one
// profiling pass.
func (s *Server) handleWarmup(w http.ResponseWriter, r *http.Request) {
	var req WarmupRequest
	if !decodeBody(w, r, &req) {
		return
	}
	names := req.Configs
	if len(names) == 0 {
		for _, c := range mppm.LLCConfigs() {
			names = append(names, c.Name)
		}
	}
	if len(names) > maxSweepConfigs {
		badRequest(w, fmt.Errorf("request has %d configs, limit is %d: %w",
			len(names), maxSweepConfigs, mppm.ErrBadConfig))
		return
	}
	configs := make([]mppm.LLCConfig, len(names))
	for i, name := range names {
		llc, err := mppm.LLCConfigByName(name)
		if err != nil {
			writeError(w, err)
			return
		}
		configs[i] = llc
	}
	start := time.Now()
	recsBefore := s.sys.EngineStats().RecordingComputations
	n, err := s.sys.Warm(r.Context(), configs...)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, WarmupResponse{
		Profiles:   n,
		Configs:    names,
		Recordings: s.sys.EngineStats().RecordingComputations - recsBefore,
		ElapsedMS:  time.Since(start).Milliseconds(),
	})
}
