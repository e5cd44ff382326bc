package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"time"

	mppm "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// outcome is what one measured pass of a workload yields.
type outcome struct {
	checks   Tally
	lat      []float64 // per-operation latency, ms; +Inf for a failure
	units    float64   // work completed: predictions, rows, requests or mixes
	elapsed  time.Duration
	ops      int     // operations the spans were recorded for
	computes engine3 // work the warm systems had to compute
	coldS    []float64
	warmS    []float64
	peerS    []float64
	firstRow []float64 // fleet: ms to the first streamed row
	stpErr   []float64 // cold: per-mix absolute errors, %
	anttErr  []float64
	open     []Arrival             // serve: the open-loop phase
	classLat [numClasses][]float64 // serve: closed-loop latencies by request class
	scrape   map[string]float64    // /metrics deltas over the pass
}

// merge folds another pass of the same workload into o.
func (o *outcome) merge(p *outcome) {
	o.checks.add(p.checks)
	o.lat = append(o.lat, p.lat...)
	o.units += p.units
	o.elapsed += p.elapsed
	o.ops += p.ops
	o.computes = o.computes.plus(p.computes)
	o.coldS = append(o.coldS, p.coldS...)
	o.warmS = append(o.warmS, p.warmS...)
	o.peerS = append(o.peerS, p.peerS...)
	o.firstRow = append(o.firstRow, p.firstRow...)
	o.stpErr = append(o.stpErr, p.stpErr...)
	o.anttErr = append(o.anttErr, p.anttErr...)
	o.open = append(o.open, p.open...)
	for c := range o.classLat {
		o.classLat[c] = append(o.classLat[c], p.classLat[c]...)
	}
	if o.scrape == nil {
		o.scrape = make(map[string]float64)
	}
	for k, v := range p.scrape {
		o.scrape[k] += v
	}
}

// addStartups adds the start-up times a set-up measured to o's own.
func (o *outcome) addStartups(f *fixture) {
	for _, d := range f.st.cold {
		o.coldS = append(o.coldS, d.Seconds())
	}
	for _, d := range f.st.warm {
		o.warmS = append(o.warmS, d.Seconds())
	}
	if f.peer != nil {
		o.peerS = append(o.peerS, f.peerStart.Seconds())
	}
}

// report lists the workload's own figures under per-workload names
// (sweep.predictions_per_s, serve.p99_ms, ...), beside the shared
// end-to-end metrics they feed.
func (o *outcome) report(name string) []kv {
	switch name {
	case "sweep":
		return []kv{{"sweep.predictions_per_s", "1/s", o.throughput()}}
	case "serve":
		lat, lag := openLoopStats(o.open, 99)
		out := []kv{
			{"serve.requests_per_s (closed loop)", "1/s", o.throughput()},
			{fmt.Sprintf("serve.p50_ms (open loop at %g/s, n=%d)", refRate, lat.N), "ms", lat.P50},
			{fmt.Sprintf("serve.p%g_ms (open loop, %d beyond)", lat.TailP, lat.Beyond), "ms", lat.Tail},
			{"loadgen.lag_p99_ms", "ms", lag.Tail},
		}
		// What each request class costs and what share of the closed
		// loop's busy time it takes, so the traffic mix's weight on the
		// gated figures can be read off every run.
		var busy float64
		for _, ls := range o.classLat {
			busy += finiteSum(ls)
		}
		for c, ls := range o.classLat {
			out = append(out,
				kv{fmt.Sprintf("serve.%s.p50_ms (closed loop, n=%d)", classNames[c], len(ls)), "ms", median(ls)},
				kv{fmt.Sprintf("serve.%s.busy_share", classNames[c]), "%", 100 * finiteSum(ls) / busy})
		}
		return out
	case "cold":
		return []kv{
			{"cold.cold_start_s", "s", median(o.coldS)},
			{"cold.warm_start_s", "s", median(o.warmS)},
			{"cold.peer_start_s", "s", median(o.peerS)},
			{"cold.sim_mixes_per_s", "1/s", o.throughput()},
			{"cold.stp_err_pct", "%", mean(o.stpErr)},
			{"cold.antt_err_pct", "%", mean(o.anttErr)},
		}
	case "fleet":
		return []kv{
			{"fleet.rows_per_s", "1/s", o.throughput()},
			{"fleet.first_row_ms", "ms", median(o.firstRow)},
		}
	}
	return nil
}

type kv struct {
	name, unit string
	v          float64
}

// engine3 counts recordings, profiles and simulations computed.
type engine3 [3]int64

func engineOf(s *mppm.System) engine3 {
	es := s.EngineStats()
	return engine3{es.RecordingComputations, es.ProfileComputations, es.SimulationComputations}
}

func (a engine3) minus(b engine3) engine3 { return engine3{a[0] - b[0], a[1] - b[1], a[2] - b[2]} }
func (a engine3) plus(b engine3) engine3  { return engine3{a[0] + b[0], a[1] + b[1], a[2] + b[2]} }

func (o *outcome) throughput() float64 { return o.units / o.elapsed.Seconds() }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// --- sweep -------------------------------------------------------------

// runSweep is the architect's design-space sweep: one caller evaluates
// the whole seeded grid through System.Eval, batch after batch.
func runSweep(ctx context.Context, e *env, f *fixture, dur time.Duration, _ *generator) (*outcome, error) {
	o := &outcome{}
	sys := f.st.warmSys
	req := mppm.NewRequest(mppm.KindPredict, f.grid, mppm.WithConfigs(e.cfgs...))
	before := engineOf(sys)
	ref := e.sweepRef
	start := time.Now()
	for deadline := start.Add(dur); time.Now().Before(deadline); {
		sp := e.rec.Begin("facade.eval", "", 0)
		t0 := time.Now()
		res, err := sys.Eval(ctx, req)
		d := time.Since(t0)
		sp.End()
		good := err == nil && validGrid(res.Scenarios, len(f.grid)*len(e.cfgs))
		if good && ref == nil {
			ref = res.Scenarios
		} else if good {
			good = sameScenarios(ref, res.Scenarios)
		}
		o.checks.ok(good)
		o.ops++
		if good {
			o.lat = append(o.lat, ms(d))
			o.units += float64(len(res.Scenarios))
		} else {
			o.lat = append(o.lat, math.Inf(1))
		}
	}
	o.elapsed = time.Since(start)
	o.computes = engineOf(sys).minus(before)
	if ref != nil && e.sweepRef == nil {
		e.sweepRef = ref
		good, err := e.matchesKernel(ctx, f, ref)
		if err != nil {
			return nil, err
		}
		o.checks.ok(good)
	}
	return o, nil
}

// validGrid checks every scenario of a prediction grid.
func validGrid(scs []mppm.Scenario, want int) bool {
	if len(scs) != want {
		return false
	}
	for i := range scs {
		sc := &scs[i]
		if sc.Err != nil || sc.Prediction == nil ||
			!validMetrics(sc.Prediction.STP, sc.Prediction.ANTT, len(sc.Mix), predictedSlack) {
			return false
		}
	}
	return true
}

// profileEngine is an engine over the warm replica's store, used to
// read profiles directly (every profile loads; nothing recomputes).
func (e *env) profileEngine(ctx context.Context, f *fixture, cfg engine.Config) (*engine.Engine, map[string]*mppm.ProfileSet, error) {
	cfg.TraceLength, cfg.IntervalLength, cfg.Store = traceLen, interval, store.Open(f.st.dir)
	eng := engine.New(cfg)
	sets, err := eng.ProfileConfigs(ctx, trace.Suite(), e.cfgs)
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]*mppm.ProfileSet, len(sets))
	for i, s := range sets {
		out[e.cfgs[i].Name] = s
	}
	return eng, out, nil
}

// matchesKernel checks a sweep grid against core.Kernel.Run on the
// same profiles.
func (e *env) matchesKernel(ctx context.Context, f *fixture, ref []mppm.Scenario) (bool, error) {
	_, sets, err := e.profileEngine(ctx, f, engine.Config{})
	if err != nil {
		return false, err
	}
	k := core.NewKernel()
	for i := range ref {
		ps, err := mixProfiles(sets[ref[i].Config.Name], ref[i].Mix)
		if err != nil {
			return false, err
		}
		got, err := k.Run(ps, core.Options{})
		if err != nil || !samePrediction(got, ref[i].Prediction) {
			return false, nil
		}
	}
	return true, nil
}

func mixProfiles(set *mppm.ProfileSet, mix mppm.Mix) ([]*mppm.Profile, error) {
	ps := make([]*mppm.Profile, len(mix))
	for i, n := range mix {
		p, err := set.Get(n)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// --- fleet -------------------------------------------------------------

// fleetRequest is the sweep grid as one streaming wire request.
func (e *env) fleetRequest(f *fixture) []byte {
	mixes := make([][]string, len(f.grid))
	for i, m := range f.grid {
		mixes[i] = m
	}
	return wire.EncodeRequest(service.EvalRequest{Mixes: mixes, Configs: e.names, Format: "wire"})
}

// wireResult is one streamed wire response.
type wireResult struct {
	body     []byte
	rows     int
	firstRow time.Duration
	total    time.Duration
	err      error
}

// postWire sends a wire request and decodes the response stream as it
// arrives, keeping the raw bytes.
func postWire(ctx context.Context, hc *http.Client, url string, body []byte, sp open) wireResult {
	var r wireResult
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		r.err = err
		return r
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Accept", wire.ContentType)
	sp.Inject(req.Header)
	resp, err := hc.Do(req)
	if err != nil {
		r.err = err
		return r
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	tee := io.TeeReader(resp.Body, &buf)
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, tee) // keep the error body for the report
		r.err = fmt.Errorf("status %d", resp.StatusCode)
		r.body = buf.Bytes()
		return r
	}
	rd, err := wire.NewReader(tee)
	if err != nil {
		r.err = err
		return r
	}
	for {
		sc, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			r.err = err
			break
		}
		if r.rows == 0 {
			r.firstRow = time.Since(t0)
		}
		if sc.Error != "" || sc.Prediction == nil ||
			!validMetrics(sc.Prediction.STP, sc.Prediction.ANTT, len(sc.Mix), predictedSlack) {
			r.err = fmt.Errorf("bad row %v: %s", sc.Mix, sc.Error)
		}
		r.rows++
	}
	r.total = time.Since(t0)
	r.body = buf.Bytes()
	return r
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// runFleet streams the sweep grid through a coordinator on replica 0
// of the in-process fleet, one request at a time on one connection,
// and checks each merged stream byte for byte against one node's.
func runFleet(ctx context.Context, e *env, f *fixture, dur time.Duration, _ *generator) (*outcome, error) {
	o := &outcome{}
	coord, err := e.coordinator(ctx, f, &o.checks)
	if err != nil {
		return nil, err
	}
	hc := newClient(1)
	defer hc.CloseIdleConnections()
	body := e.fleetRequest(f)
	single := postWire(ctx, hc, f.warm.srv.URL, body, open{})
	if single.err != nil {
		return nil, fmt.Errorf("single-node reference: %w", single.err)
	}
	want := len(f.grid) * len(e.cfgs)
	before := engineOf(f.warm.sys).plus(engineOf(f.peer.sys))
	scr0 := scrape(ctx, f.warm.srv.URL)
	start := time.Now()
	for deadline := start.Add(dur); time.Now().Before(deadline); {
		sp := e.rec.Begin("fleet.request", newReqID("fleet"), 0)
		r := postWire(ctx, hc, coord.URL, body, sp)
		sp.End()
		good := r.err == nil && r.rows == want && bytes.Equal(r.body, single.body)
		o.checks.ok(good)
		o.ops++
		if good {
			o.lat = append(o.lat, ms(r.total))
			o.firstRow = append(o.firstRow, ms(r.firstRow))
			o.units += float64(r.rows)
		} else {
			o.lat = append(o.lat, math.Inf(1))
		}
	}
	o.elapsed = time.Since(start)
	o.computes = engineOf(f.warm.sys).plus(engineOf(f.peer.sys)).minus(before)
	o.scrape = scrapeDelta(scr0, scrape(ctx, f.warm.srv.URL))
	return o, nil
}

// --- cold --------------------------------------------------------------

// coldWarmRepeats is how many fresh warm starts each cold pass makes.
// The count is fixed, not fitted to the time a pass takes, so a run's
// rounds passes always yield rounds*coldWarmRepeats = 102 latencies and
// the reported tail is always p90 with ten samples beyond it, however
// fast the host starts a System.
const coldWarmRepeats = 34

// runCold makes one pass through the start-ups that read artifacts,
// warm from the set-up's populated store and from a peer, then spends
// the rest of dur comparing MPPM against detailed simulation on seeded
// mixes no other part of the run uses. The cold start from an empty
// store is timed in every set-up, so the pass does not repeat it and
// leaves that time to the simulations.
func runCold(ctx context.Context, e *env, f *fixture, dur time.Duration, _ *generator) (*outcome, error) {
	o := &outcome{}
	start := time.Now()
	runtime.GC()
	var warm []*mppm.System
	for i := 0; i < coldWarmRepeats; i++ {
		sys, d, err := e.warmStart(ctx, f.st.dir)
		if err != nil {
			return nil, err
		}
		o.warmS = append(o.warmS, d.Seconds())
		o.lat = append(o.lat, ms(d))
		warm = append(warm, sys)
	}
	peer, d, err := e.peerStart(ctx, []string{f.warm.srv.URL})
	if err != nil {
		return nil, err
	}
	o.peerS = append(o.peerS, d.Seconds())
	for _, sys := range []*mppm.System{warm[len(warm)-1], peer} {
		got, err := e.checkPredictions(ctx, sys)
		o.checks.ok(err == nil && sameScenarios(f.st.ref, got))
	}
	for _, sys := range append(warm, peer) {
		o.computes = o.computes.plus(engineOf(sys))
		checkWarm(&o.checks, sys)
	}
	o.ops += 2 + len(warm)

	mixes, err := mppm.RandomMixes(400, cores, e.subSeed(4))
	if err != nil {
		return nil, err
	}
	sys := f.st.warmSys
	t4 := time.Now()
	simulated := 0
	for first := true; first || time.Since(start) < dur; first = false {
		at := e.coldNext % len(mixes)
		batch := mixes[at:min(at+e.nproc, len(mixes))]
		e.coldNext += len(batch)
		sp := e.rec.Begin("facade.compare", "", 0)
		s, a, err := compareMixes(ctx, sys, batch, &o.checks)
		sp.End()
		if err != nil {
			return nil, err
		}
		o.stpErr, o.anttErr = append(o.stpErr, s...), append(o.anttErr, a...)
		simulated += len(batch)
		o.ops++
	}
	o.elapsed = time.Since(t4)
	o.units = float64(simulated)
	return o, nil
}
