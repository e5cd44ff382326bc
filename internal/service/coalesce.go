package service

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	mppm "repro"
	"repro/internal/obs"
	"repro/internal/wire"
)

// Request coalescing: identical concurrent /v1/eval requests collapse
// onto one engine evaluation. The first request starts a shared
// producer goroutine that runs System.EvalStream once and appends each
// finished row to a broadcast log; every subscriber (the first request
// and any identical request that arrives while the job is in flight)
// replays the log from the start and then tails it live, rendering the
// shared rows in its own negotiated encoding. A subscriber leaving
// never cancels the shared job until the last one departs; the log is
// bounded, so a subscriber that falls behind the retention window is
// kicked rather than allowed to pin unbounded memory.

// maxSpillRows bounds how many rows a shared evaluation retains for
// replay. Once the log is trimmed it is sealed: no new subscriber can
// join (it could no longer replay from row zero), and a subscriber
// still reading trimmed rows is kicked. A var so tests can shrink it.
var maxSpillRows = 4096

// coalEvent tells a subscriber what next() resolved to.
type coalEvent int

const (
	// evRow delivers one scenario row.
	evRow coalEvent = iota
	// evEnd is the clean end of the stream.
	evEnd
	// evErr is a stream-level failure (plan error, cancellation); the
	// accompanying error is the producer's.
	evErr
	// evLagged kicks a subscriber that fell behind the replay window.
	evLagged
	// evGone reports the subscriber's own request context ended.
	evGone
)

// errFellBehind is the terminal error a kicked subscriber reports.
var errFellBehind = fmt.Errorf("subscriber fell behind the coalesced stream's replay window")

// coalescer tracks in-flight shared evaluations by request identity.
// Lock ordering: coalescer.mu before sharedEval.mu, never the reverse.
type coalescer struct {
	mu       sync.Mutex
	inflight map[string]*sharedEval
}

// sharedEval is one running evaluation and its broadcast row log.
type sharedEval struct {
	key     string
	c       *coalescer
	ctx     context.Context
	cancel  context.CancelFunc
	traceID string // trace the creating request belonged to; "" unsampled

	mu        sync.Mutex
	notify    chan struct{}    // closed and replaced on every state change
	rows      []ScenarioResult // retained window; rows[0] is global row `base`; immutable once appended
	base      int              // global index of rows[0]
	sealed    bool             // log trimmed: no new subscribers
	done      bool             // producer finished (cleanly or not)
	streamErr error            // stream-level failure; nil on clean end
	subs      int
}

// joinEval returns the shared evaluation for mreq, attaching to an
// identical in-flight one when possible and starting a new producer
// otherwise. The caller must balance with leave().
func (s *Server) joinEval(r *http.Request, mreq mppm.Request) *sharedEval {
	key := s.evalIdentity(mreq)
	c := &s.coal
	c.mu.Lock()
	defer c.mu.Unlock()
	if se := c.inflight[key]; se != nil {
		se.mu.Lock()
		ok := !se.sealed
		if ok {
			se.subs++
		}
		se.mu.Unlock()
		if ok {
			obs.CoalescedRequestsTotal.Inc()
			if obs.TraceSampled(r.Context()) {
				// Joiner span: this request did no engine work; the span
				// links its trace to the creator's, whose trace carries the
				// shared engine job spans.
				obs.RecordSpanAt(r.Context(), obs.Service, "coalesce.join",
					time.Now(), 0, nil, "shared_trace", se.traceID)
			}
			return se
		}
		// Sealed: replayable history is gone; start a fresh evaluation
		// and let it take over the identity slot.
	}
	// The shared job outlives any one subscriber, so it must not die
	// with the first request's context — but it keeps that context's
	// values (the request ID stamped by the metrics middleware keeps
	// propagating into engine job traces).
	// The creator's context values also carry its span context, so the
	// shared engine job's spans land in the first requester's trace;
	// joiners record a coalesce.join span pointing at it.
	ctx, cancel := context.WithCancel(context.WithoutCancel(r.Context()))
	se := &sharedEval{
		key: key, c: c, ctx: ctx, cancel: cancel,
		notify: make(chan struct{}), subs: 1,
	}
	if sc, sampled := obs.SpanContextFrom(ctx); sampled {
		se.traceID = sc.TraceID
	}
	c.inflight[key] = se
	go s.runSharedEval(se, mreq)
	return se
}

// evalIdentity is the coalescing key: a digest over every field of the
// lowered request that changes the response — kind, contention model,
// resolved config names and the mix grid. TopK never reaches the
// coalescer (ranked requests are served directly).
func (s *Server) evalIdentity(mreq mppm.Request) string {
	h := sha256.New()
	_, _ = io.WriteString(h, mreq.Kind.String())
	_, _ = h.Write([]byte{0})
	if mreq.Options.Contention != nil {
		_, _ = io.WriteString(h, mreq.Options.Contention.Name())
	}
	_, _ = h.Write([]byte{0})
	for _, name := range s.resolvedConfigNames(mreq) {
		_, _ = io.WriteString(h, name)
		_, _ = h.Write([]byte{0})
	}
	_, _ = h.Write([]byte{0})
	for _, mix := range mreq.Mixes {
		for _, b := range mix {
			_, _ = io.WriteString(h, b)
			_, _ = h.Write([]byte{0x1f})
		}
		_, _ = h.Write([]byte{0})
	}
	return string(h.Sum(nil))
}

// resolvedConfigNames reports the config names the evaluation will
// actually run — the explicit list, or the system's configured LLC when
// the request names none (mirroring the request planner's default).
func (s *Server) resolvedConfigNames(mreq mppm.Request) []string {
	if len(mreq.Configs) == 0 {
		return []string{s.sys.LLC().Name}
	}
	names := make([]string, len(mreq.Configs))
	for i, c := range mreq.Configs {
		names[i] = c.Name
	}
	return names
}

// runSharedEval is the producer: it runs the evaluation once and
// broadcasts each row. Stream-level failures (invalid plan, job
// cancellation) end the stream with streamErr; per-scenario failures
// travel inside their rows like everywhere else.
func (s *Server) runSharedEval(se *sharedEval, mreq mppm.Request) {
	defer se.cancel()
	for sc, err := range s.sys.EvalStream(se.ctx, mreq) {
		if sc.Mix == nil {
			se.finish(err)
			return
		}
		se.append(toScenarioResult(&sc))
	}
	se.finish(nil)
}

// broadcast wakes every waiting subscriber. Callers hold se.mu.
func (se *sharedEval) broadcast() {
	close(se.notify)
	se.notify = make(chan struct{})
}

// append adds one row to the log, trimming (and thereby sealing) it
// when it outgrows the replay window. Trimming happens in batches —
// only once the log reaches 1.5x the window, dropping back down to the
// window — so the copy cost is amortized O(1) per row.
func (se *sharedEval) append(row ScenarioResult) {
	se.mu.Lock()
	se.rows = append(se.rows, row)
	if len(se.rows) > maxSpillRows+maxSpillRows/2 {
		drop := len(se.rows) - maxSpillRows
		n := copy(se.rows, se.rows[drop:])
		clear(se.rows[n:]) // release trimmed rows' backing memory
		se.rows = se.rows[:n]
		se.base += drop
		se.sealed = true
	}
	se.broadcast()
	se.mu.Unlock()
}

// finish marks the evaluation done. The identity slot is released
// first (under c.mu, honoring the lock order) so a request arriving
// after completion starts fresh instead of replaying a stale result.
func (se *sharedEval) finish(err error) {
	se.c.mu.Lock()
	if se.c.inflight[se.key] == se {
		delete(se.c.inflight, se.key)
	}
	se.c.mu.Unlock()
	se.mu.Lock()
	se.done = true
	se.streamErr = err
	se.broadcast()
	se.mu.Unlock()
}

// leave detaches one subscriber. The last subscriber to leave a still-
// running evaluation cancels it — nobody is listening — and releases
// its identity slot so the next identical request starts cleanly. Both
// map and subscriber state are inspected under both locks, so a
// concurrent join can never attach to an evaluation this call is about
// to cancel.
func (se *sharedEval) leave() {
	se.c.mu.Lock()
	se.mu.Lock()
	se.subs--
	abandon := se.subs == 0 && !se.done
	if abandon && se.c.inflight[se.key] == se {
		delete(se.c.inflight, se.key)
	}
	se.mu.Unlock()
	se.c.mu.Unlock()
	if abandon {
		se.cancel()
	}
}

// next blocks until global row idx (or a terminal state) is available.
// The row is returned by value: the producer may trim the log the
// moment the lock is released.
func (se *sharedEval) next(ctx context.Context, idx int) (ScenarioResult, coalEvent, error) {
	for {
		se.mu.Lock()
		switch {
		case idx < se.base:
			se.mu.Unlock()
			return ScenarioResult{}, evLagged, errFellBehind
		case idx < se.base+len(se.rows):
			row := se.rows[idx-se.base]
			se.mu.Unlock()
			return row, evRow, nil
		case se.done:
			err := se.streamErr
			se.mu.Unlock()
			if err != nil {
				return ScenarioResult{}, evErr, err
			}
			return ScenarioResult{}, evEnd, nil
		}
		ch := se.notify
		se.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ScenarioResult{}, evGone, ctx.Err()
		}
	}
}

// ready reports whether next(idx) would return without waiting for the
// producer. The streaming writers flush only when it is false: rows that
// complete in a burst share one flush, and the client still sees every
// row as soon as the writer would otherwise sit idle.
func (se *sharedEval) ready(idx int) bool {
	se.mu.Lock()
	defer se.mu.Unlock()
	return idx < se.base+len(se.rows) || se.done
}

// coalescedEval serves one /v1/eval request through the coalescer,
// rendering the shared row stream in the negotiated encoding.
func (s *Server) coalescedEval(w http.ResponseWriter, r *http.Request, mreq mppm.Request, mode evalMode) {
	se := s.joinEval(r, mreq)
	defer se.leave()
	switch mode {
	case modeNDJSON:
		serveCoalescedNDJSON(w, r, se)
	case modeWire:
		s.serveCoalescedWire(w, r, se, mreq)
	default:
		s.serveCoalescedBuffered(w, r, se, mreq)
	}
}

// serveCoalescedNDJSON renders the shared stream as NDJSON with the
// historical semantics: a failure before the first row is a plain
// error response; mid-stream it becomes a trailing error line. Each
// subscriber encodes its own lines into one reused buffer.
func serveCoalescedNDJSON(w http.ResponseWriter, r *http.Request, se *sharedEval) {
	flusher, _ := w.(http.Flusher)
	started := false
	fail := func(err error) {
		if !started {
			writeError(w, err)
			return
		}
		if line, lerr := appendRowLine(nil, errorBody{Error: err.Error()}); lerr == nil {
			_, _ = w.Write(line)
		}
	}
	var line []byte
	for idx := 0; ; idx++ {
		row, ev, err := se.next(r.Context(), idx)
		switch ev {
		case evRow:
			if line, err = appendRowLine(line[:0], &row); err != nil {
				fail(err)
				return
			}
			if !started {
				w.Header().Set("Content-Type", ndjsonContentType)
				w.WriteHeader(http.StatusOK)
				started = true
			}
			if _, werr := w.Write(line); werr != nil {
				return // client gone
			}
			if flusher != nil && !se.ready(idx+1) {
				flusher.Flush()
			}
		case evEnd:
			return
		case evErr, evLagged:
			fail(err)
			return
		case evGone:
			return
		}
	}
}

// serveCoalescedWire renders the shared stream as binary wire frames.
// The preamble is deferred until the first row so a failure before any
// row still gets a plain error response with its proper status; later
// failures become a checksummed error frame.
func (s *Server) serveCoalescedWire(w http.ResponseWriter, r *http.Request, se *sharedEval, mreq mppm.Request) {
	flusher, _ := w.(http.Flusher)
	var ww *wire.Writer
	defer func() {
		if ww != nil {
			obs.WireBytesOutTotal.Add(uint64(ww.BytesWritten()))
		}
	}()
	start := func() bool {
		hdr := wire.StreamHeader{
			Kind:    mreq.Kind.String(),
			Configs: s.resolvedConfigNames(mreq),
			Mixes:   make([][]string, len(mreq.Mixes)),
		}
		for i, m := range mreq.Mixes {
			hdr.Mixes[i] = m
		}
		w.Header().Set("Content-Type", wire.ContentType)
		w.WriteHeader(http.StatusOK)
		var err error
		ww, err = wire.NewWriter(w, hdr)
		return err == nil
	}
	for idx := 0; ; idx++ {
		row, ev, err := se.next(r.Context(), idx)
		switch ev {
		case evRow:
			if ww == nil && !start() {
				return
			}
			if werr := ww.WriteRow(&row); werr != nil {
				return
			}
			obs.WireRowsTotal.Inc()
			if flusher != nil && !se.ready(idx+1) {
				flusher.Flush()
			}
		case evEnd:
			if ww == nil && !start() {
				return
			}
			_ = ww.Close()
			return
		case evErr, evLagged:
			if ww == nil {
				writeError(w, err)
				return
			}
			if ww.WriteError(err.Error()) == nil {
				_ = ww.Close()
			}
			return
		case evGone:
			return
		}
	}
}

// serveCoalescedBuffered assembles the classic JSON document from the
// shared stream — byte-identical to the direct buffered path, since
// rows arrive in grid order and carry the same encoding.
func (s *Server) serveCoalescedBuffered(w http.ResponseWriter, r *http.Request, se *sharedEval, mreq mppm.Request) {
	var scens []ScenarioResult
	for idx := 0; ; idx++ {
		row, ev, err := se.next(r.Context(), idx)
		switch ev {
		case evRow:
			scens = append(scens, row)
		case evEnd:
			allFailed := len(scens) > 0
			for i := range scens {
				if scens[i].Error == "" {
					allFailed = false
					break
				}
			}
			if allFailed {
				writeJSON(w, StatusForMessage(scens[0].Error), errorBody{Error: scens[0].Error})
				return
			}
			writeJSON(w, http.StatusOK, EvalResponse{
				Kind:      mreq.Kind.String(),
				Mixes:     len(mreq.Mixes),
				Configs:   s.resolvedConfigNames(mreq),
				Scenarios: scens,
			})
			return
		case evErr, evLagged:
			writeError(w, err)
			return
		case evGone:
			return
		}
	}
}
