package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	mppm "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Each rung repeats its operation for rungTime in each of ladderRounds
// interleaved rounds and reports the median round, so a burst of load
// on a shared machine lands on one round of every rung rather than on
// all of one rung.
const (
	rungTime     = 100 * time.Millisecond
	ladderRounds = 3
)

// rungOp is one rung's operation: it returns the units it completed and
// whether it succeeded; i numbers the rung's operations.
type rungOp struct {
	name string
	op   func(i int) (int, bool)
}

// run measures the rungs in interleaved rounds.
func (l *ladder) run(ops []rungOp) []Rung {
	samples := make([][]Rung, len(ops))
	next := make([]int, len(ops))
	for r := 0; r < ladderRounds; r++ {
		for i, o := range ops {
			s := l.measure(o.name, next[i], o.op)
			next[i] += s.Ops
			samples[i] = append(samples[i], s)
		}
	}
	out := make([]Rung, len(ops))
	for i, ss := range samples {
		var ns, allocs, bytes []float64
		for _, s := range ss {
			ns, allocs, bytes = append(ns, s.NsPerUnit), append(allocs, s.AllocsUnit), append(bytes, s.BytesUnit)
		}
		out[i] = Rung{Name: ops[i].name, Units: ss[0].Units, Ops: next[i],
			NsPerUnit: median(ns), AllocsUnit: median(allocs), BytesUnit: median(bytes)}
	}
	return out
}

// ladder feeds the sweep grid through one more layer per rung, so the
// per-unit cost of each layer is the difference of adjacent rungs.
type ladder struct {
	e    *env
	f    *fixture
	eng  *engine.Engine
	pool [2]*engine.Engine // one worker and nproc workers, for the pool's speedup
	sets map[string]*mppm.ProfileSet
	jobs []engine.Job
	req  mppm.Request
	hc   *http.Client

	gridJSON, gridNDJSON, gridWire, singleJSON []byte
	rows                                       []*service.ScenarioResult

	queueWait atomic.Int64 // OnJob queue wait, ns, summed
	queueJobs atomic.Int64
	iters     float64
	tally     Tally // every rung operation, checked for success
	firstRow  []float64
}

func newLadder(ctx context.Context, e *env, f *fixture) (*ladder, error) {
	l := &ladder{e: e, f: f, hc: newClient(serveConns)}
	var err error
	l.eng, l.sets, err = e.profileEngine(ctx, f, engine.Config{OnJob: func(t engine.JobTiming) {
		l.queueWait.Add(int64(t.QueueWait))
		l.queueJobs.Add(1)
	}})
	if err != nil {
		return nil, err
	}
	for i, w := range poolWorkers(e) {
		if l.pool[i], _, err = e.profileEngine(ctx, f, engine.Config{Workers: w}); err != nil {
			return nil, err
		}
	}
	l.jobs = engine.SweepJobs(f.grid, e.cfgs, engine.Predict, core.Options{})
	l.req = mppm.NewRequest(mppm.KindPredict, f.grid, mppm.WithConfigs(e.cfgs...))
	mixes := make([][]string, len(f.grid))
	for i, m := range f.grid {
		mixes[i] = m
	}
	er := service.EvalRequest{Mixes: mixes, Configs: e.names}
	l.gridJSON, _ = json.Marshal(er)
	er.Stream = true
	l.gridNDJSON, _ = json.Marshal(er)
	er.Stream, er.Format = false, "wire"
	l.gridWire = wire.EncodeRequest(er)
	l.singleJSON, _ = json.Marshal(service.EvalRequest{Mix: f.grid[0]})

	// Rows for the codec rungs: one decoded grid response.
	r := postWire(ctx, l.hc, f.warm.srv.URL, l.gridWire, open{})
	if r.err != nil {
		return nil, fmt.Errorf("ladder grid: %w", r.err)
	}
	rd, err := wire.NewReader(bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	for {
		row, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		l.rows = append(l.rows, row)
	}
	return l, nil
}

// measure repeats op for rungTime and reports per-unit cost. op
// returns the units it completed and whether it succeeded.
func (l *ladder) measure(name string, first int, op func(i int) (int, bool)) Rung {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	units, ops := 0, 0
	t0 := time.Now()
	for time.Since(t0) < rungTime || ops == 0 {
		sp := l.e.rec.Begin("ladder."+name, "", 0)
		n, ok := op(first + ops)
		sp.End()
		l.tally.ok(ok)
		units += n
		ops++
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	u := float64(max(units, 1))
	return Rung{
		Name: name, Units: units / ops, Ops: ops,
		NsPerUnit:  float64(d) / u,
		AllocsUnit: float64(m1.Mallocs-m0.Mallocs) / u,
		BytesUnit:  float64(m1.TotalAlloc-m0.TotalAlloc) / u,
	}
}

// inProcess serves one request through the handler without a network.
func inProcess(h http.Handler, body []byte, ct, accept string) int {
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(body))
	req.Header.Set("Content-Type", ct)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w.Code
}

// gridRungs runs the per-row ladder at the current GOMAXPROCS.
func (l *ladder) gridRungs(ctx context.Context) ([]Rung, error) {
	procs := runtime.GOMAXPROCS(0)
	n := len(l.jobs)
	profiles := make([][]*mppm.Profile, n)
	for i, j := range l.jobs {
		ps, err := mixProfiles(l.sets[j.LLC.Name], j.Mix)
		if err != nil {
			return nil, err
		}
		profiles[i] = ps
	}
	var iters atomic.Int64
	kernel := func(int) (int, bool) {
		var wg sync.WaitGroup
		var failed atomic.Bool
		for w := 0; w < procs; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				k := core.NewKernel()
				for i := w; i < n; i += procs {
					res, err := k.Run(profiles[i], core.Options{})
					if err != nil {
						failed.Store(true)
						continue
					}
					iters.Add(int64(res.Iterations))
				}
			}()
		}
		wg.Wait()
		return n, !failed.Load()
	}
	coord, err := l.e.coordinator(ctx, l.f, &l.tally)
	if err != nil {
		return nil, err
	}
	l.queueWait.Store(0)
	l.queueJobs.Store(0)
	rungs := l.run([]rungOp{
		{"kernel", kernel},
		{"engine", func(int) (int, bool) {
			_, err := l.eng.Run(ctx, l.jobs)
			return n, err == nil
		}},
		{"eval", func(int) (int, bool) {
			_, err := l.f.warm.sys.Eval(ctx, l.req)
			return n, err == nil
		}},
		{"handler/json", func(int) (int, bool) {
			return n, inProcess(l.f.warm.h, l.gridJSON, "application/json", "") == 200
		}},
		{"handler/ndjson", func(int) (int, bool) {
			return n, inProcess(l.f.warm.h, l.gridNDJSON, "application/json", "") == 200
		}},
		{"handler/wire", func(int) (int, bool) {
			return n, inProcess(l.f.warm.h, l.gridWire, wire.ContentType, wire.ContentType) == 200
		}},
		{"http/wire", func(i int) (int, bool) {
			sp := l.e.rec.Begin("http.request", fmt.Sprintf("hw-%d-%d", procs, i), 0)
			r := postWire(ctx, l.hc, l.f.warm.srv.URL, l.gridWire, sp)
			sp.End()
			return r.rows, r.err == nil
		}},
		{"fleet/wire", func(i int) (int, bool) {
			sp := l.e.rec.Begin("fleet.request", fmt.Sprintf("fw-%d-%d", procs, i), 0)
			r := postWire(ctx, l.hc, coord.URL, l.gridWire, sp)
			sp.End()
			if r.err == nil {
				l.firstRow = append(l.firstRow, ms(r.firstRow))
			}
			return r.rows, r.err == nil
		}},
	})
	l.iters = float64(iters.Load()) / float64(rungs[0].Ops*n)
	return rungs, nil
}

// poolWorkers are the worker counts of the ladder's pool engines.
func poolWorkers(e *env) [2]int { return [2]int{1, e.nproc} }

// poolRungs runs the engine rung on a one-worker engine and on an
// nproc-worker engine at the current GOMAXPROCS, so their ratio is the
// speedup the engine's worker pool gives.
func (l *ladder) poolRungs(ctx context.Context) []Rung {
	var ops []rungOp
	for i, eng := range l.pool {
		ops = append(ops, rungOp{fmt.Sprintf("engine/workers=%d", poolWorkers(l.e)[i]), func(int) (int, bool) {
			_, err := eng.Run(ctx, l.jobs)
			return len(l.jobs), err == nil
		}})
	}
	return l.run(ops)
}

// singleRungs prices one interactive single-mix request per layer.
func (l *ladder) singleRungs(ctx context.Context) []Rung {
	req := mppm.NewRequest(mppm.KindPredict, []mppm.Mix{l.f.grid[0]})
	r := &serveReq{body: l.singleJSON, ct: "application/json"}
	return l.run([]rungOp{
		{"eval/single", func(int) (int, bool) {
			_, err := l.f.warm.sys.Eval(ctx, req)
			return 1, err == nil
		}},
		{"handler/single", func(int) (int, bool) {
			return 1, inProcess(l.f.warm.h, l.singleJSON, "application/json", "") == 200
		}},
		{"http/single", func(i int) (int, bool) {
			sp := l.e.rec.Begin("http.request", newReqID("hs"), 0)
			status, _ := post(ctx, l.hc, l.f.warm.srv.URL, r, sp)
			sp.End()
			return 1, status == 200
		}},
	})
}

// coalesced sends the identical grid request on both connections at
// once and returns coalesced joins per duplicate sent.
func (l *ladder) coalesced(ctx context.Context) (Rung, float64) {
	url := l.f.warm.srv.URL
	c0 := obs.CoalescedRequestsTotal.Value()
	rung := l.run([]rungOp{{"http/coalesced", func(i int) (int, bool) {
		var wg sync.WaitGroup
		var rows [2]int
		var bad atomic.Bool
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sp := l.e.rec.Begin("http.request", newReqID("hc"), 0)
				r := postWire(ctx, l.hc, url, l.gridWire, sp)
				sp.End()
				rows[c] = r.rows
				if r.err != nil {
					bad.Store(true)
				}
			}()
		}
		wg.Wait()
		return rows[0] + rows[1], !bad.Load()
	}}})[0]
	return rung, float64(obs.CoalescedRequestsTotal.Value()-c0) / float64(rung.Ops)
}

// codec prices the wire codec alone on the grid's rows.
func (l *ladder) codec() (enc, dec Rung, err error) {
	hdr := wire.StreamHeader{Kind: "predict", Configs: l.e.names}
	for _, m := range l.f.grid {
		hdr.Mixes = append(hdr.Mixes, m)
	}
	var buf bytes.Buffer
	encode := func(int) (int, bool) {
		buf.Reset()
		w, err := wire.NewWriter(&buf, hdr)
		if err != nil {
			return 0, false
		}
		for _, r := range l.rows {
			if w.WriteRow(r) != nil {
				return 0, false
			}
		}
		return len(l.rows), w.Close() == nil
	}
	if _, ok := encode(0); !ok {
		return enc, dec, fmt.Errorf("ladder: wire encode failed")
	}
	stream := append([]byte(nil), buf.Bytes()...)
	rs := l.run([]rungOp{{"wire/encode", encode}, {"wire/decode", func(int) (int, bool) {
		rd, err := wire.NewReader(bytes.NewReader(stream))
		if err != nil {
			return 0, false
		}
		n := 0
		for {
			_, err := rd.Next()
			if err == io.EOF {
				return n, n == len(l.rows)
			}
			if err != nil {
				return n, false
			}
			n++
		}
	}}})
	return rs[0], rs[1], nil
}

// coldRungs prices the cold path per artifact: frontend recording,
// per-config replay, store save and load, and one detailed 4-core
// simulation per mix.
type coldRungs struct {
	recordMS, replayMS, saveMS, loadMS, multicoreMS, streamPct float64
}

func (l *ladder) cold(ctx context.Context) (coldRungs, error) {
	var c coldRungs
	suite := trace.Suite()
	specs := []trace.Spec{suite[int(l.e.seed)%len(suite)], suite[int(l.e.seed+11)%len(suite)]}
	base := l.eng.SimConfig(mppm.DefaultLLC())
	var recs []*sim.Recording
	t0 := time.Now()
	for _, s := range specs {
		sp := l.e.rec.Begin("sim.record", "", 0)
		rec, err := sim.RecordSpec(ctx, s, base)
		sp.End()
		if err != nil {
			return c, err
		}
		recs = append(recs, rec)
		c.streamPct += 100 * float64(rec.Accesses()) / float64(rec.TraceLength()) / float64(len(specs))
	}
	c.recordMS = ms(time.Since(t0)) / float64(len(specs))

	type prof struct {
		spec trace.Spec
		cfg  sim.Config
		p    *mppm.Profile
	}
	var profs []prof
	t0 = time.Now()
	for i, rec := range recs {
		for _, llc := range l.e.cfgs {
			cfg := l.eng.SimConfig(llc)
			sp := l.e.rec.Begin("sim.replay", "", 0)
			p, err := rec.Replay(ctx, cfg, sim.ProfileOptions{})
			sp.End()
			if err != nil {
				return c, err
			}
			profs = append(profs, prof{specs[i], cfg, p})
		}
	}
	c.replayMS = ms(time.Since(t0)) / float64(len(profs))

	dir := l.e.dir("ladder-store")
	st := store.Open(dir)
	t0 = time.Now()
	for i, rec := range recs {
		sp := l.e.rec.Begin("store.save", "", 0)
		err := st.SaveRecording(specs[i], base, rec)
		sp.End()
		if err != nil {
			return c, err
		}
	}
	for _, p := range profs {
		sp := l.e.rec.Begin("store.save", "", 0)
		err := st.SaveProfile(p.spec, p.cfg, sim.ProfileOptions{}, p.p)
		sp.End()
		if err != nil {
			return c, err
		}
	}
	artifacts := float64(len(recs) + len(profs))
	c.saveMS = ms(time.Since(t0)) / artifacts

	st = store.Open(dir)
	t0 = time.Now()
	for _, s := range specs {
		sp := l.e.rec.Begin("store.load", "", 0)
		_, ok := st.LoadRecording(s, base)
		sp.End()
		if !ok {
			return c, fmt.Errorf("ladder: recording %s did not load back", s.Name)
		}
	}
	for _, p := range profs {
		sp := l.e.rec.Begin("store.load", "", 0)
		_, ok := st.LoadProfile(p.spec, p.cfg, sim.ProfileOptions{})
		sp.End()
		if !ok {
			return c, fmt.Errorf("ladder: profile %s did not load back", p.spec.Name)
		}
	}
	c.loadMS = ms(time.Since(t0)) / artifacts

	mix := l.f.grid[len(l.f.grid)-1]
	mspecs := make([]trace.Spec, len(mix))
	for i, n := range mix {
		s, err := trace.ByName(n)
		if err != nil {
			return c, err
		}
		mspecs[i] = s
	}
	t0 = time.Now()
	sp := l.e.rec.Begin("sim.multicore", "", 0)
	_, err := sim.RunMulticore(ctx, mspecs, base, nil)
	sp.End()
	if err != nil {
		return c, err
	}
	c.multicoreMS = ms(time.Since(t0))
	return c, nil
}

// reconcile runs the engine rung once more with the in-program tracer
// fully sampled and compares the engine.run spans the flight recorder
// kept with the benchmark's own timing of the same calls.
func (l *ladder) reconcile(ctx context.Context) (coveragePct, dropped float64) {
	const chunk = 200 // jobs per trace: two spans each, under the recorder's per-trace cap
	d0 := obs.TraceSpansDroppedTotal.Value()
	obs.SetTraceSampleRate(1)
	defer func() {
		obs.SetTraceSampleRate(0)
		obs.ResetTraces()
	}()
	var outside, inside time.Duration
	for i := 0; i < len(l.jobs); i += chunk {
		jobs := l.jobs[i:min(i+chunk, len(l.jobs))]
		tctx, root := obs.StartSpan(ctx, obs.Service, "perfbench.engine")
		t0 := time.Now()
		_, err := l.eng.Run(tctx, jobs)
		outside += time.Since(t0)
		root.End()
		if err != nil || root == nil {
			continue
		}
		for _, s := range obs.TraceSpans(root.TraceID) {
			if s.Name == "engine.run" {
				inside += s.Duration
			}
		}
	}
	return 100 * float64(inside) / float64(outside), float64(obs.TraceSpansDroppedTotal.Value() - d0)
}
