package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	mppm "repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/wire"
)

// Coordinator defaults; all overridable via Config.
const (
	defaultMaxInFlight  = 4
	defaultRetries      = 2
	defaultRetryBackoff = 50 * time.Millisecond
	defaultDownFor      = 15 * time.Second
	maxBodyBytes        = 8 << 20 // mirrors the service request cap
)

// Config parameterizes a Coordinator.
type Config struct {
	// Peers are the fleet's replica base URLs, this process's own
	// included if it also serves shards. Every coordinator must be given
	// the same set (order does not matter) or they will disagree on
	// ownership.
	Peers []string
	// DefaultConfig is the LLC config name assumed when a request names
	// none. It must match the replicas' default (the system's configured
	// LLC); empty means mppm.DefaultLLC().
	DefaultConfig string
	// VNodes is the ring's virtual-node count per replica; <=0 means the
	// package default.
	VNodes int
	// MaxInFlight bounds concurrent shard streams per replica; <=0 means 4.
	MaxInFlight int
	// Retries is how many extra attempts a shard gets on its owner before
	// the owner is declared down; 0 means 2, negative means none.
	Retries int
	// RetryBackoff is the base of the jittered exponential backoff
	// between attempts; <=0 means 50ms.
	RetryBackoff time.Duration
	// DownFor is how long a replica stays out of the ring after its
	// retries are exhausted; <=0 means 15s.
	DownFor time.Duration
	// HTTPClient carries the shard and artifact traffic; nil means
	// http.DefaultClient. It must not impose an overall request timeout —
	// shard streams live as long as their slowest scenario.
	HTTPClient *http.Client
	// TraceDebug enables the fleet-wide trace stitch endpoint: GET
	// /v1/debug/traces/{id} pulls every replica's local spans for the
	// trace and merges them into one tree. Enable together with the
	// replicas' WithTraceDebug (mppmd wires both to the sample rate).
	TraceDebug bool
}

// Coordinator fans one /v1/eval request out across the fleet and merges
// the shard streams back into a single response byte-identical to what
// one replica evaluating the whole request would produce. Requests the
// fleet cannot improve (TopK ranking, malformed bodies, single-replica
// fleets) pass through to the local handler untouched, so a coordinator
// in front of a replica is never worse than the replica.
type Coordinator struct {
	cfg     Config
	ring    *Ring
	clients []*Client
	sems    []chan struct{}

	mu        sync.Mutex
	downUntil []time.Time
}

// New builds a Coordinator over the peer set.
func New(cfg Config) (*Coordinator, error) {
	ring, err := NewRing(cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if cfg.DefaultConfig == "" {
		cfg.DefaultConfig = mppm.DefaultLLC().Name
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	switch {
	case cfg.Retries == 0:
		cfg.Retries = defaultRetries
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = defaultRetryBackoff
	}
	if cfg.DownFor <= 0 {
		cfg.DownFor = defaultDownFor
	}
	c := &Coordinator{
		cfg:       cfg,
		ring:      ring,
		downUntil: make([]time.Time, ring.Replicas()),
	}
	for i := 0; i < ring.Replicas(); i++ {
		c.clients = append(c.clients, NewClient(ring.Replica(i), cfg.HTTPClient))
		c.sems = append(c.sems, make(chan struct{}, cfg.MaxInFlight))
	}
	return c, nil
}

// Mount routes POST /v1/eval through the coordinator, GET
// /v1/debug/traces/{id} through the trace stitcher (when Config
// enables it, and unless the request carries the ?local=1 marker a
// stitching peer uses to ask for this replica's own spans), and
// everything else to the local handler — the shape cmd/mppmd serves in
// coordinator mode.
func (c *Coordinator) Mount(local http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/eval" {
			c.HandleEval(w, r, local)
			return
		}
		if c.cfg.TraceDebug && r.Method == http.MethodGet &&
			strings.HasPrefix(r.URL.Path, "/v1/debug/traces/") &&
			r.URL.Query().Get("local") == "" {
			c.handleStitchedTrace(w, r)
			return
		}
		local.ServeHTTP(w, r)
	})
}

// handleStitchedTrace serves one trace fleet-wide: this process's
// locally recorded spans merged with a pull from every reachable
// replica, deduplicated by span ID (replicas sharing a process — the
// in-process test fleets — share one flight recorder) and labeled with
// the replica that served them. Pulls are best-effort: a replica that
// is down or knows nothing about the trace is an empty lane, not a
// failure, because the spans it would have contributed are exactly as
// lost as the replica.
func (c *Coordinator) handleStitchedTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/debug/traces/")
	if id == "" || strings.Contains(id, "/") {
		writeJSONError(w, http.StatusNotFound, "fleet: bad trace id")
		return
	}
	spans := service.TraceSpansJSON(id)
	seen := make(map[string]bool, len(spans))
	for _, sp := range spans {
		seen[sp.SpanID] = true
	}
	for _, cl := range c.clients {
		if cl.Refused() {
			continue
		}
		peer, ok, err := cl.Traces(r.Context(), id)
		if err != nil || !ok {
			continue
		}
		for _, sp := range peer {
			if seen[sp.SpanID] {
				continue
			}
			seen[sp.SpanID] = true
			if sp.Replica == "" {
				sp.Replica = cl.Base()
			}
			spans = append(spans, sp)
		}
	}
	if len(spans) == 0 {
		writeJSONError(w, http.StatusNotFound, fmt.Sprintf("fleet: unknown trace %q", id))
		return
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNano != spans[j].StartNano {
			return spans[i].StartNano < spans[j].StartNano
		}
		return spans[i].SpanID < spans[j].SpanID
	})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(service.TraceResponse{TraceID: id, Spans: spans})
}

// alive reports whether replica i may be offered work right now.
func (c *Coordinator) alive(i int, now time.Time) bool {
	if c.clients[i].Refused() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return !now.Before(c.downUntil[i])
}

// markDown takes replica i out of the ring for the cooldown window.
func (c *Coordinator) markDown(i int) {
	c.mu.Lock()
	c.downUntil[i] = time.Now().Add(c.cfg.DownFor)
	c.mu.Unlock()
	if obs.Fleet.Enabled(obs.LevelInfo) {
		obs.Fleet.Log(context.Background(), obs.LevelInfo, "replica marked down",
			"replica", c.clients[i].Base(), "for", c.cfg.DownFor)
	}
}

// evalPlan is one distributed request lowered to shardable units.
type evalPlan struct {
	kind       string
	contention string
	mode       responseMode
	cfgNames   []string
	mixes      []mppm.Mix
	mixKeys    []string
}

func (p *evalPlan) total() int { return len(p.cfgNames) * len(p.mixes) }

// unit is one (config, mix) work item, addressed by grid coordinates.
type unit struct{ cfg, mix int }

// shard is a contiguous batch of one replica's units on one config —
// the granularity of a sub-request.
type shard struct {
	replica int
	cfg     int
	mixIdx  []int // ascending original mix indices
}

// unitKey is the consistent-hash key of one work unit.
func (p *evalPlan) unitKey(u unit) string {
	return p.cfgNames[u.cfg] + "|" + p.mixKeys[u.mix]
}

// planShards assigns units to alive replicas and groups them into
// per-(replica, config) shards, preserving grid order inside each
// shard. It fails only when no replica is alive.
func (c *Coordinator) planShards(p *evalPlan, units []unit) ([]shard, error) {
	now := time.Now()
	alive := func(i int) bool { return c.alive(i, now) }
	idx := make(map[[2]int]int) // (replica, cfg) -> shard slot
	var shards []shard
	for _, u := range units {
		owner := c.ring.Owner(p.unitKey(u), alive)
		if owner < 0 {
			return nil, fmt.Errorf("fleet: no alive replicas for %s", p.unitKey(u))
		}
		k := [2]int{owner, u.cfg}
		s, ok := idx[k]
		if !ok {
			s = len(shards)
			idx[k] = s
			shards = append(shards, shard{replica: owner, cfg: u.cfg})
		}
		shards[s].mixIdx = append(shards[s].mixIdx, u.mix)
	}
	return shards, nil
}

// rowMsg is one shard row headed for the merge loop.
type rowMsg struct {
	idx int
	sc  *service.ScenarioResult
}

// negotiateMode mirrors the service's response-encoding negotiation:
// the body's format field wins, then an Accept header naming the wire
// content type, then the stream flag. ok=false means an unrecognized
// format the local handler should reject canonically.
func negotiateMode(req *service.EvalRequest, r *http.Request) (responseMode, bool) {
	switch req.Format {
	case "", "json":
	case "wire":
		return modeWire, true
	default:
		return 0, false
	}
	if strings.Contains(r.Header.Get("Accept"), wire.ContentType) {
		return modeWire, true
	}
	if req.Stream {
		return modeNDJSON, true
	}
	return modeBuffered, true
}

// shardHeader marks a sub-request already sharded by a coordinator. In
// production every replica runs a coordinator and sits in its own ring,
// so a self-addressed shard arrives back at the coordinator that sent
// it; without the marker it would be re-sharded — and a single-unit
// shard owned by this replica would recurse forever. Marked requests go
// straight to the local handler.
const shardHeader = "Mppm-Fleet-Shard"

// HandleEval serves one POST /v1/eval, distributing it across the fleet
// when possible and passing it through to local otherwise.
func (c *Coordinator) HandleEval(w http.ResponseWriter, r *http.Request, local http.Handler) {
	if r.Header.Get(shardHeader) != "" {
		local.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	_ = r.Body.Close()
	passthrough := func() {
		r2 := r.Clone(r.Context())
		r2.Body = io.NopCloser(bytes.NewReader(body))
		r2.ContentLength = int64(len(body))
		local.ServeHTTP(w, r2)
	}
	if err != nil || len(body) > maxBodyBytes {
		passthrough() // let the local handler produce the canonical error
		return
	}
	var req service.EvalRequest
	if strings.Contains(r.Header.Get("Content-Type"), wire.ContentType) {
		var derr error
		if req, derr = wire.DecodeRequest(body); derr != nil {
			passthrough()
			return
		}
	} else if err := service.DecodeJSON(bytes.NewReader(body), &req); err != nil {
		passthrough()
		return
	}
	mreq, err := service.BuildRequest(req)
	if err != nil || mreq.TopK > 0 || len(c.clients) < 2 {
		// Invalid requests get the replica's canonical error response;
		// TopK needs the full ranked grid and is served locally.
		passthrough()
		return
	}
	mode, ok := negotiateMode(&req, r)
	if !ok {
		passthrough() // unknown format: canonical error from the replica
		return
	}

	p := &evalPlan{
		kind:       mreq.Kind.String(),
		contention: req.Contention,
		mode:       mode,
	}
	for _, cf := range mreq.Configs {
		p.cfgNames = append(p.cfgNames, cf.Name)
	}
	if len(p.cfgNames) == 0 {
		p.cfgNames = []string{c.cfg.DefaultConfig}
	}
	p.mixes = mreq.Mixes
	for _, m := range p.mixes {
		p.mixKeys = append(p.mixKeys, m.Key())
	}
	// The fan-out path bypasses the service middleware, so the
	// coordinator stamps request identity itself: the request ID, and —
	// when sampled — the "fleet.eval" root span whose context every
	// shard sub-request inherits through Client.StreamEval's traceparent
	// injection.
	ctx, reqID := obs.EnsureRequestID(r.Context(), r.Header)
	w.Header().Set(obs.RequestIDHeader, reqID)
	var sp *obs.Span
	if obs.TraceEnabled() {
		ctx, sp = obs.StartServerSpan(ctx, r.Header, obs.Fleet, "fleet.eval")
		if sp != nil {
			w.Header().Set(obs.TraceIDHeader, sp.TraceID)
			sp.SetAttr("configs", strconv.Itoa(len(p.cfgNames)))
			sp.SetAttr("mixes", strconv.Itoa(len(p.mixes)))
		}
	}
	c.run(w, r.WithContext(ctx), p)
	sp.End()
}

// run distributes the planned request and merges the shard streams.
func (c *Coordinator) run(w http.ResponseWriter, r *http.Request, p *evalPlan) {
	units := make([]unit, 0, p.total())
	for cf := range p.cfgNames {
		for m := range p.mixes {
			units = append(units, unit{cfg: cf, mix: m})
		}
	}
	shards, err := c.planShards(p, units)
	if err != nil {
		writeJSONError(w, http.StatusServiceUnavailable, err.Error())
		return
	}

	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	var msp *obs.Span
	if obs.TraceSampled(ctx) {
		// The merge span measures the whole fan-out/reorder/emit phase;
		// shard spans parent to fleet.eval directly (they are siblings of
		// the merge, dispatched into it), so only the span itself — not
		// ctx — is kept here.
		_, msp = obs.StartSpan(ctx, obs.Fleet, "fleet.merge")
		msp.SetAttr("shards", strconv.Itoa(len(shards)))
	}
	defer msp.End()
	rows := make(chan rowMsg, 128)
	fatal := make(chan error, 1)
	reportFatal := func(err error) {
		select {
		case fatal <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	var dispatch func(sh shard)
	dispatch = func(sh shard) {
		defer wg.Done()
		err := c.runShard(ctx, p, sh, rows)
		if err == nil || ctx.Err() != nil {
			return
		}
		// The owner exhausted its retries: take it out of the ring and
		// re-hash its units onto the survivors.
		c.markDown(sh.replica)
		obs.FleetShardFailoversTotal.Inc()
		if obs.Fleet.Enabled(obs.LevelInfo) {
			obs.Fleet.Log(ctx, obs.LevelInfo, "shard failing over",
				"replica", c.clients[sh.replica].Base(),
				"config", p.cfgNames[sh.cfg], "units", len(sh.mixIdx), "err", err)
		}
		redo := make([]unit, 0, len(sh.mixIdx))
		for _, m := range sh.mixIdx {
			redo = append(redo, unit{cfg: sh.cfg, mix: m})
		}
		next, err := c.planShards(p, redo)
		if err != nil {
			reportFatal(err)
			return
		}
		for _, ns := range next {
			wg.Add(1)
			go dispatch(ns)
		}
	}
	for _, sh := range shards {
		wg.Add(1)
		go dispatch(sh)
	}
	go func() {
		wg.Wait()
		close(rows)
	}()

	em := newEmitter(w, p)
	rb := newReorderBuffer(p.total())
	unflushed := false
	for !rb.Done() {
		// Flush once the writer has caught up: every released row is
		// written and no shard row is queued. Rows that arrive in a burst
		// share one flush; a lone row still leaves before the loop waits.
		if unflushed && len(rows) == 0 {
			em.flush()
			unflushed = false
		}
		select {
		case err := <-fatal:
			cancel()
			em.fail(err)
			return
		case msg, ok := <-rows:
			if !ok {
				// Every shard goroutine finished without covering the grid:
				// either one reported a fatal error (prefer it — the closed
				// channel may win the select race) or we were cancelled.
				select {
				case err := <-fatal:
					em.fail(err)
				default:
					em.fail(fmt.Errorf("fleet: request cancelled with %d/%d rows merged: %w",
						rb.Released(), rb.total, context.Canceled))
				}
				return
			}
			if !rb.Add(msg.idx, msg.sc) {
				continue // duplicate from a retried shard
			}
			for {
				sc, ok := rb.Pop()
				if !ok {
					break
				}
				if err := em.row(sc); err != nil {
					cancel() // client gone; stop the fan-out
					return
				}
				unflushed = true
			}
		}
	}
	cancel() // release any straggler retries still re-sending merged rows
	em.finish()
}

// runShard streams one shard off its replica, retrying with jittered
// exponential backoff. It returns nil only after the shard's full row
// count arrived; anything else — transport failure, error status, a
// stream-level error line, a short stream — fails the attempt.
func (c *Coordinator) runShard(ctx context.Context, p *evalPlan, sh shard, rows chan<- rowMsg) error {
	select {
	case c.sems[sh.replica] <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-c.sems[sh.replica] }()

	cl := c.clients[sh.replica]
	sub := service.EvalRequest{
		Kind:       p.kind,
		Configs:    []string{p.cfgNames[sh.cfg]},
		Contention: p.contention,
		Stream:     true,
	}
	for _, m := range sh.mixIdx {
		sub.Mixes = append(sub.Mixes, []string(p.mixes[m]))
	}

	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			obs.FleetShardRetriesTotal.Inc()
			if !sleepJittered(ctx, c.cfg.RetryBackoff<<(attempt-1)) {
				return ctx.Err()
			}
		}
		if err := cl.Check(ctx); err != nil {
			lastErr = err
			if cl.Refused() {
				return err // version skew is permanent; go straight to failover
			}
			continue
		}
		obs.FleetShardsDispatchedTotal.Inc()
		if obs.Fleet.Enabled(obs.LevelDebug) {
			obs.Fleet.Log(ctx, obs.LevelDebug, "shard dispatched",
				"replica", cl.Base(), "config", p.cfgNames[sh.cfg],
				"units", len(sh.mixIdx), "attempt", attempt)
		}
		// Each attempt is its own "fleet.shard" span: the replica-side
		// server span becomes its child through the traceparent header,
		// so the stitched tree shows exactly which attempt did the work.
		attemptCtx := ctx
		var ssp *obs.Span
		if obs.TraceSampled(ctx) {
			attemptCtx, ssp = obs.StartSpan(ctx, obs.Fleet, "fleet.shard")
			ssp.SetAttr("replica", cl.Base())
			ssp.SetAttr("config", p.cfgNames[sh.cfg])
			ssp.SetAttr("units", strconv.Itoa(len(sh.mixIdx)))
			ssp.SetAttr("attempt", strconv.Itoa(attempt))
		}
		n := 0
		err := cl.StreamEval(attemptCtx, sub, func(sc *service.ScenarioResult) error {
			if n >= len(sh.mixIdx) {
				return fmt.Errorf("fleet: replica %s sent more rows than the shard holds", cl.Base())
			}
			idx := sh.cfg*len(p.mixes) + sh.mixIdx[n]
			n++
			select {
			case rows <- rowMsg{idx: idx, sc: sc}:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		if err == nil && n == len(sh.mixIdx) {
			ssp.End()
			return nil
		}
		if err == nil {
			err = fmt.Errorf("fleet: replica %s closed the stream after %d of %d rows",
				cl.Base(), n, len(sh.mixIdx))
		}
		ssp.EndErr(err)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
	}
	return fmt.Errorf("fleet: shard on %s failed after %d attempts: %w",
		cl.Base(), c.cfg.Retries+1, lastErr)
}

// sleepJittered sleeps for d plus up to 50% random jitter, or until ctx
// is done (returning false). Jitter decorrelates the retry storms of
// shards that failed together.
func sleepJittered(ctx context.Context, d time.Duration) bool {
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// writeJSONError renders an error body the way the service does:
// indented JSON with a trailing newline.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		Error string `json:"error"`
	}{msg})
}
