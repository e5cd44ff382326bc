package fleet

import (
	"encoding/json"
	"errors"
	"net/http"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wire"
)

// errClientGone marks a response writer that failed before the first
// frame could be written; the merge loop treats it like any other
// client disconnect.
var errClientGone = errors.New("fleet: client gone before stream start")

// responseMode is the negotiated client-facing encoding of a
// distributed eval response, mirroring the service's negotiation.
type responseMode int

const (
	modeBuffered responseMode = iota
	modeNDJSON
	modeWire
)

// emitter renders the merged rows as one of /v1/eval's response modes.
// All three reproduce the single-replica response byte for byte: rows
// decoded off shard streams re-encode identically (Go's shortest-float
// JSON representation round-trips exactly, and the wire format carries
// float bits verbatim), so decode+re-encode is the identity.
type emitter interface {
	// row emits one in-order row; an error means the client is gone.
	row(sc *service.ScenarioResult) error
	// flush pushes every row emitted so far to the client. The merge
	// loop calls it once it has caught up with the shards, not per row.
	flush()
	// fail terminates the response with an error: a plain error response
	// if nothing has been sent, a trailing error frame mid-stream.
	fail(err error)
	// finish completes a fully-merged response.
	finish()
}

func newEmitter(w http.ResponseWriter, p *evalPlan) emitter {
	fl, _ := w.(http.Flusher)
	switch p.mode {
	case modeWire:
		return &wireEmitter{w: w, flusher: fl, p: p}
	case modeNDJSON:
		return &streamEmitter{w: w, flusher: fl}
	default:
		return &bufferedEmitter{w: w, p: p}
	}
}

// streamEmitter forwards merged rows as NDJSON.
type streamEmitter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	started bool
}

func (e *streamEmitter) row(sc *service.ScenarioResult) error {
	line, err := service.MarshalScenarioLine(sc)
	if err != nil {
		return err
	}
	if !e.started {
		e.w.Header().Set("Content-Type", "application/x-ndjson")
		e.w.WriteHeader(http.StatusOK)
		e.started = true
	}
	_, err = e.w.Write(line)
	return err
}

func (e *streamEmitter) flush() {
	if e.flusher != nil {
		e.flusher.Flush()
	}
}

func (e *streamEmitter) fail(err error) {
	if !e.started {
		writeJSONError(e.w, service.StatusForMessage(err.Error()), err.Error())
		return
	}
	// The 200 is on the wire; append the error as a final line, exactly
	// like a replica whose stream died mid-request.
	line, merr := json.Marshal(struct {
		Error string `json:"error"`
	}{err.Error()})
	if merr != nil {
		return
	}
	_, _ = e.w.Write(append(line, '\n'))
	if e.flusher != nil {
		e.flusher.Flush()
	}
}

func (e *streamEmitter) finish() {}

// bufferedEmitter accumulates the merged rows and renders the classic
// EvalResponse document.
type bufferedEmitter struct {
	w     http.ResponseWriter
	p     *evalPlan
	scens []service.ScenarioResult
}

func (e *bufferedEmitter) row(sc *service.ScenarioResult) error {
	e.scens = append(e.scens, *sc)
	return nil
}

func (e *bufferedEmitter) flush() {}

func (e *bufferedEmitter) fail(err error) {
	writeJSONError(e.w, service.StatusForMessage(err.Error()), err.Error())
}

func (e *bufferedEmitter) finish() {
	allFailed := len(e.scens) > 0
	for i := range e.scens {
		if e.scens[i].Error == "" {
			allFailed = false
			break
		}
	}
	if allFailed {
		// Mirror the single-replica behavior: when every scenario failed,
		// the first error in grid order becomes the response.
		msg := e.scens[0].Error
		writeJSONError(e.w, service.StatusForMessage(msg), msg)
		return
	}
	resp := service.EvalResponse{
		Kind:      e.p.kind,
		Mixes:     len(e.p.mixes),
		Configs:   e.p.cfgNames,
		Scenarios: e.scens,
	}
	e.w.Header().Set("Content-Type", "application/json")
	e.w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(e.w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// wireEmitter renders merged rows as binary wire frames — the fleet
// face of the service's wire response. The preamble is deferred until
// the first row so a pre-stream failure still gets a plain error
// response with its proper status.
type wireEmitter struct {
	w       http.ResponseWriter
	flusher http.Flusher
	p       *evalPlan
	ww      *wire.Writer
	counted int64
}

func (e *wireEmitter) start() bool {
	hdr := wire.StreamHeader{
		Kind:    e.p.kind,
		Configs: e.p.cfgNames,
		Mixes:   make([][]string, len(e.p.mixes)),
	}
	for i, m := range e.p.mixes {
		hdr.Mixes[i] = m
	}
	e.w.Header().Set("Content-Type", wire.ContentType)
	e.w.WriteHeader(http.StatusOK)
	ww, err := wire.NewWriter(e.w, hdr)
	if err != nil {
		return false
	}
	e.ww = ww
	return true
}

// account attributes freshly written frame bytes to the process-wide
// wire output counter (incremental, so a dropped client mid-stream
// still leaves the counter consistent).
func (e *wireEmitter) account() {
	if e.ww == nil {
		return
	}
	n := e.ww.BytesWritten()
	if d := n - e.counted; d > 0 {
		obs.WireBytesOutTotal.Add(uint64(d))
		e.counted = n
	}
}

func (e *wireEmitter) row(sc *service.ScenarioResult) error {
	if e.ww == nil && !e.start() {
		return errClientGone
	}
	err := e.ww.WriteRow(sc)
	e.account()
	if err != nil {
		return err
	}
	obs.WireRowsTotal.Inc()
	return nil
}

func (e *wireEmitter) flush() {
	if e.flusher != nil {
		e.flusher.Flush()
	}
}

func (e *wireEmitter) fail(err error) {
	if e.ww == nil {
		writeJSONError(e.w, service.StatusForMessage(err.Error()), err.Error())
		return
	}
	if e.ww.WriteError(err.Error()) == nil {
		_ = e.ww.Close()
	}
	e.account()
}

func (e *wireEmitter) finish() {
	if e.ww == nil && !e.start() {
		return
	}
	_ = e.ww.Close()
	e.account()
}
