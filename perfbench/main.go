// Command perfbench is the repository's end-to-end benchmark. It drives
// the system from outside, through its public entry points, on one of
// four seeded workloads:
//
//	sweep  System.Eval over a 64-mix x six-config prediction grid, one caller
//	serve  /v1/eval on a loopback service handler over two connections
//	cold   fresh Systems reaching a warm state three ways, then MPPM vs detailed simulation
//	fleet  the sweep grid as one streaming wire request to a two-replica fleet
//
// Every workload's set-up starts a System from an empty store and then
// fresh Systems from the populated store, so the start-up times and the
// model's accuracy on a fixed held-out sample are measured on every
// workload alongside its own throughput and latency.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// repeats the workload with the benchmark's own spans recorded, feeds
// the sweep grid through the layer ladder at GOMAXPROCS=1 and at all
// cores, and prints the per-layer metrics. The last line of standard
// output is the JSON result; the lines before it are the report.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// rounds is how many times a run sets up and measures; set-up time is
// the median over them.
const rounds = 3

// searchBudget bounds the serve workload's max_rps search, which runs
// once, after the measured rounds.
const searchBudget = 4 * time.Second

// tailFor is the tail percentile each workload reports: the highest
// that leaves ten samples beyond it in every window of a run.
var tailFor = map[string]float64{"sweep": 95, "serve": 99, "cold": 90, "fleet": 95}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, out io.Writer) (int, error) {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := flags.String("workload", "", "sweep, serve, cold or fleet")
	seed := flags.Int64("seed", 1, "input seed")
	seconds := flags.Int("seconds", 10, "measured seconds")
	traced := flags.Int("trace", 0, "1: traced run with per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return 2, err
	}
	_, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		return 2, fmt.Errorf("usage: --workload sweep|serve|cold|fleet --seed N --seconds N --trace 0|1")
	}
	work := filepath.Join(".bench_build", fmt.Sprintf("perfbench-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 1, err
	}
	defer removeAll(work)

	e := newEnv(work, *seed)
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%d gomaxprocs=%d nproc=%d go=%s commit=%s\n",
		*name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0), e.nproc, runtime.Version(), commit())
	dur := time.Duration(*seconds) * time.Second
	// A run takes a few times its measured seconds; one that hangs is
	// cut off and fails rather than running on.
	ctx, cancel := context.WithTimeout(context.Background(), 3*dur+90*time.Second)
	defer cancel()
	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(ctx, e, *name, dur, out)
	} else {
		res, err = plainRun(ctx, e, *name, dur)
	}
	if err != nil {
		return 1, err
	}
	res.print(out)
	return 0, nil
}

// workload is one workload's measured pass. The generator is the serve
// workload's request stream; the others ignore it.
type workload func(ctx context.Context, e *env, f *fixture, dur time.Duration, g *generator) (*outcome, error)

var workloads = map[string]workload{"sweep": runSweep, "serve": runServe, "cold": runCold, "fleet": runFleet}

// setupOnce builds one fixture: the replicas, and the fleet in front of
// them for the fleet workload.
func setupOnce(ctx context.Context, e *env, name string, checks *Tally) (*fixture, error) {
	f, err := e.setup(ctx, checks)
	if err != nil {
		return nil, err
	}
	if name == "fleet" {
		if _, err := e.coordinator(ctx, f, checks); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

// result is what a run prints.
type result struct {
	checks Tally
	defs   []metricDef
	values map[string]float64
	report []kv
}

func (r *result) print(out io.Writer) {
	correct := r.checks.Failed == 0
	ms := make(map[string]map[string]any, len(r.defs))
	for _, m := range r.report {
		fmt.Fprintf(out, "# %-34s %14.6g %s\n", m.name, m.v, m.unit)
	}
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		fmt.Fprintf(out, "# %-34s %14.6g %s\n", d.Name, v, d.Unit)
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN or Inf; a metric that could not be
			// measured fails the run.
			correct, v = false, -1
		}
		ms[d.Name] = map[string]any{"value": v, "unit": d.Unit}
	}
	fmt.Fprintf(out, "# checks: %d attempted, %d failed, failed_ratio %.6g\n",
		r.checks.Attempted, r.checks.Failed, r.checks.Ratio())
	b, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(r.checks.Attempted, 1),
		"failed": r.checks.Failed, "metrics": ms,
	})
	fmt.Fprintln(out, string(b))
}

// plainRun measures the end-to-end metrics, tracing off. The run is
// cut into rounds, each a fresh set-up followed by a share of the
// measured time, so that a burst of load on a shared machine lands on
// one round's samples rather than on every set-up or every operation.
func plainRun(ctx context.Context, e *env, name string, dur time.Duration) (*result, error) {
	res := &result{}
	var setups []float64
	all := &outcome{}
	var stp, antt float64
	g, err := newGenerator(e)
	if err != nil {
		return nil, err
	}
	for round := 0; round < rounds; round++ {
		t0 := time.Now()
		f, err := setupOnce(ctx, e, name, &res.checks)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		all.addStartups(f)
		o, err := workloads[name](ctx, e, f, dur/rounds, g)
		if err == nil && round == rounds-1 {
			stp, antt, err = e.accuracy(ctx, f.st.warmSys, &res.checks)
		}
		if err == nil && round == rounds-1 && name == "serve" {
			var rate float64
			var trials int
			rate, trials, err = searchMaxRPS(ctx, e, f, g, searchBudget, &res.checks)
			res.report = append(res.report, kv{fmt.Sprintf("serve.max_rps (%d trials)", trials), "1/s", rate})
		}
		f.close()
		if err != nil {
			return nil, err
		}
		all.merge(o)
	}
	res.checks.add(all.checks)
	res.checks.ok(all.computes == engine3{})
	lat, windows := summarizeWindowed(all.lat, tailFor[name])
	res.report = append(append(all.report(name), res.report...),
		kv{fmt.Sprintf("%s.p50_ms (n=%d)", name, lat.N), "ms", lat.P50},
		kv{fmt.Sprintf("%s.p%g_ms (median of %d windows, %d beyond each)", name, lat.TailP, windows, lat.Beyond), "ms", lat.Tail},
		kv{"failed_ratio", "ratio", res.checks.Ratio()})
	if len(all.peerS) > 0 && name != "cold" {
		res.report = append(res.report, kv{"peer_start_s", "s", median(all.peerS)})
	}
	res.defs = endToEnd
	res.values = map[string]float64{
		"setup_s":          median(setups),
		"peak_rss_mb":      peakRSSMB(),
		"throughput_per_s": all.throughput(),
		"p50_ms":           lat.P50,
		"tail_ms":          lat.Tail,
		"cold_start_s":     median(all.coldS),
		"warm_start_s":     median(all.warmS),
		"stp_err_pct":      stp,
		"antt_err_pct":     antt,
	}
	return res, nil
}

// runtimeSampler tracks allocation, GC and the goroutine peak over a
// window.
type runtimeSampler struct {
	m0      runtime.MemStats
	t0      time.Time
	peak    atomic.Int64
	stop    chan struct{}
	stopped sync.WaitGroup
}

func startSampler() *runtimeSampler {
	s := &runtimeSampler{t0: time.Now(), stop: make(chan struct{})}
	runtime.ReadMemStats(&s.m0)
	s.stopped.Add(1)
	go func() {
		defer s.stopped.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > s.peak.Load() {
				s.peak.Store(n)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// end returns alloc MB/s, GC cycles/s and the goroutine peak.
func (s *runtimeSampler) end() (allocMBs, gcs, peak float64) {
	close(s.stop)
	s.stopped.Wait()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	secs := time.Since(s.t0).Seconds()
	return float64(m1.TotalAlloc-s.m0.TotalAlloc) / 1e6 / secs, float64(m1.NumGC-s.m0.NumGC) / secs, float64(s.peak.Load())
}

func finiteSum(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			sum += x
		}
	}
	return sum
}

func finiteMean(xs []float64) float64 {
	var f []float64
	for _, x := range xs {
		if !math.IsInf(x, 0) {
			f = append(f, x)
		}
	}
	return mean(f)
}

func rungByName(rs []Rung, name string) Rung {
	for _, r := range rs {
		if r.Name == name {
			return r
		}
	}
	return Rung{NsPerUnit: math.NaN(), AllocsUnit: math.NaN()}
}

// tracedRun repeats the workload untraced and traced, then runs the
// layer ladder, and reports the per-layer metrics.
func tracedRun(ctx context.Context, e *env, name string, dur time.Duration, out io.Writer) (*result, error) {
	res := &result{}
	e.rec = newRecorder()
	e.rec.off.Store(true)
	g, err := newGenerator(e)
	if err != nil {
		return nil, err
	}
	f, err := setupOnce(ctx, e, name, &res.checks)
	if err != nil {
		return nil, err
	}
	defer f.close()

	plain, err := workloads[name](ctx, e, f, dur/2, g)
	if err != nil {
		return nil, err
	}
	e.rec.off.Store(false)
	spans0 := e.rec.Len()
	smp := startSampler()
	o, err := workloads[name](ctx, e, f, dur/2, g)
	if err != nil {
		return nil, err
	}
	allocMBs, gcs, gpeak := smp.end()
	spansPerOp := float64(e.rec.Len()-spans0) / float64(max(o.ops, 1))
	res.checks.add(plain.checks)
	res.checks.add(o.checks)
	res.checks.ok(o.computes == engine3{} && plain.computes == engine3{})

	l, err := newLadder(ctx, e, f)
	if err != nil {
		return nil, err
	}
	scr0 := scrape(ctx, f.warm.srv.URL)
	nproc := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(1)
	r1, err := l.gridRungs(ctx)
	s1 := l.singleRungs(ctx)
	coverage, dropped := l.reconcile(ctx)
	runtime.GOMAXPROCS(nproc)
	if err != nil {
		return nil, err
	}
	rN, err := l.gridRungs(ctx)
	if err != nil {
		return nil, err
	}
	sN := l.singleRungs(ctx)
	pool := l.poolRungs(ctx)
	coal, coalRatio := l.coalesced(ctx)
	enc, dec, err := l.codec()
	if err != nil {
		return nil, err
	}
	cr, err := l.cold(ctx)
	if err != nil {
		return nil, err
	}
	_, lagT := openLoopStats(o.open, 99)
	sent := len(o.open)
	if sent == 0 {
		// Workloads without an open loop price the generator on a probe.
		arr, resp, _ := trial(ctx, e, l.hc, f.warm.srv.URL, g.schedule(200, 500*time.Millisecond))
		_, lagT = openLoopStats(arr, 99)
		sent = len(arr)
		for _, r := range resp {
			res.checks.ok(r.status == 200)
		}
	}
	sd := scrapeDelta(scr0, scrape(ctx, f.warm.srv.URL))

	printLadder(out, "GOMAXPROCS=1 (per prediction or row)", r1)
	printLadder(out, "GOMAXPROCS=1 (per single-mix request)", s1)
	printLadder(out, fmt.Sprintf("GOMAXPROCS=%d (per prediction or row)", nproc), append(rN, coal))
	printLadder(out, fmt.Sprintf("GOMAXPROCS=%d (per single-mix request)", nproc), sN)
	printLadder(out, fmt.Sprintf("engine pool at GOMAXPROCS=%d (per prediction)", nproc), pool)
	printLadder(out, "wire codec (per row)", []Rung{enc, dec})
	spans := e.rec.Spans()
	printSelfTimes(out, spans)
	spanFile := filepath.Join(".bench_build", fmt.Sprintf("perfbench-spans-%s-%d.jsonl", name, e.seed))
	if err := e.rec.WriteJSON(spanFile); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "# spans: %d written to %s\n", len(spans), spanFile)

	us := func(rs []Rung, rung string) float64 { return rungByName(rs, rung).NsPerUnit / 1e3 }
	httpSelf := selfTimes(filterReq(spans, "hw-1-"))["http.request"]
	httpRows := rungByName(r1, "http/wire")
	queueUS := float64(l.queueWait.Load()) / float64(max(l.queueJobs.Load(), 1)) / 1e3
	if name == "serve" {
		queueUS = 1e6 * o.scrape["mppm_engine_job_queue_seconds_sum"] /
			math.Max(o.scrape["mppm_engine_job_queue_seconds_count"], 1)
	}
	computes := o.computes.plus(plain.computes)
	st := f.st
	hits := st.warmStore.ProfileHits + st.warmStore.RecordingHits
	misses := st.warmStore.ProfileMisses + st.warmStore.RecordingMisses
	fleetReqs := float64(rungByName(r1, "fleet/wire").Ops + rungByName(rN, "fleet/wire").Ops)
	res.checks.add(l.tally)
	nonOK := non2xx(sd)
	if o.scrape != nil {
		nonOK += non2xx(o.scrape)
	}
	// The store's warm start must be served entirely from disk.
	res.checks.ok(misses == 0 && hits > 0)
	res.defs = perLayer
	res.values = map[string]float64{
		"core.kernel_us":                    us(r1, "kernel"),
		"core.kernel_allocs":                rungByName(r1, "kernel").AllocsUnit,
		"core.iterations_mean":              l.iters,
		"engine.job_us":                     us(r1, "engine"),
		"engine.overhead_us":                us(r1, "engine") - us(r1, "kernel"),
		"engine.allocs_per_job":             rungByName(r1, "engine").AllocsUnit,
		"engine.queue_wait_us":              queueUS,
		"engine.worker_speedup":             pool[0].NsPerUnit / pool[1].NsPerUnit,
		"engine.recording_computes":         float64(computes[0]),
		"engine.profile_computes":           float64(computes[1]),
		"engine.sim_computes":               float64(computes[2]),
		"facade.eval_us":                    us(r1, "eval"),
		"facade.overhead_us":                us(r1, "eval") - us(r1, "engine"),
		"facade.allocs_per_prediction":      rungByName(r1, "eval").AllocsUnit,
		"service.handler_single_us":         us(s1, "handler/single"),
		"service.handler_json_us_per_row":   us(r1, "handler/json"),
		"service.handler_ndjson_us_per_row": us(r1, "handler/ndjson"),
		"service.handler_wire_us_per_row":   us(r1, "handler/wire"),
		"service.http_us":                   float64(httpSelf) / 1e3 / float64(max(httpRows.Units*httpRows.Ops, 1)),
		"service.coalesced_ratio":           coalRatio,
		"service.non2xx":                    nonOK,
		"wire.encode_us_per_row":            enc.NsPerUnit / 1e3,
		"wire.decode_us_per_row":            dec.NsPerUnit / 1e3,
		"wire.bytes_per_row":                sd["mppm_wire_bytes_out_total"] / math.Max(sd["mppm_wire_rows_total"], 1),
		"fleet.overhead_us_per_row":         us(r1, "fleet/wire") - us(r1, "http/wire"),
		"fleet.first_row_ms":                median(l.firstRow),
		"fleet.shards":                      sd["mppm_fleet_shards_dispatched_total"] / math.Max(fleetReqs, 1),
		"fleet.retries":                     sd["mppm_fleet_shard_retries_total"],
		"fleet.failovers":                   sd["mppm_fleet_shard_failovers_total"],
		"fleet.merge_stall_ms":              1e3 * sd["mppm_fleet_merge_stall_seconds_sum"] / math.Max(sd["mppm_fleet_merge_stall_seconds_count"], 1),
		"sim.record_ms":                     cr.recordMS,
		"sim.replay_ms":                     cr.replayMS,
		"sim.llc_stream_pct":                cr.streamPct,
		"sim.multicore_ms":                  cr.multicoreMS,
		"store.save_ms":                     cr.saveMS,
		"store.load_ms":                     cr.loadMS,
		"store.hits":                        float64(hits),
		"store.misses":                      float64(st.coldStore.ProfileMisses + st.coldStore.RecordingMisses),
		"store.saves":                       float64(st.coldStore.Saves),
		"store.rejects":                     float64(st.coldStore.Rejected + st.warmStore.Rejected + f.peerStore.Rejected),
		"store.hit_ratio":                   float64(hits) / math.Max(float64(hits+misses), 1),
		"store.disk_bytes":                  float64(st.diskBytes),
		"store.peer_bytes":                  float64(f.peerStore.PeerBytesFetched),
		"store.peer_start_ms":               ms(f.peerStart),
		"obs.trace_overhead_pct":            100 * (finiteMean(o.lat)/finiteMean(plain.lat) - 1),
		"obs.spans_per_request":             spansPerOp,
		"obs.spans_dropped":                 dropped,
		"obs.engine_span_coverage_pct":      coverage,
		"runtime.alloc_mb_per_s":            allocMBs,
		"runtime.gc_cycles_per_s":           gcs,
		"runtime.goroutines_peak":           gpeak,
		"loadgen.lag_p99_ms":                lagT.Tail,
		"loadgen.sent":                      float64(sent),
		"failed_ratio":                      res.checks.Ratio(),
	}
	o.addStartups(f)
	res.report = o.report(name)
	return res, nil
}

// filterReq keeps the spans of requests whose ID starts with prefix.
func filterReq(spans []Span, prefix string) []Span {
	var out []Span
	for _, s := range spans {
		if strings.HasPrefix(s.Req, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// printSelfTimes prints each span name's total and self time.
func printSelfTimes(out io.Writer, spans []Span) {
	self := selfTimes(spans)
	total := make(map[string]time.Duration)
	count := make(map[string]int)
	for _, s := range spans {
		total[s.Name] += time.Duration(s.dur())
		count[s.Name]++
	}
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "# %-24s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(out, "# %-24s %8d %12.3f %12.3f\n", n, count[n], ms(total[n]), ms(self[n]))
	}
}

// commit identifies the code under test: the VCS revision the build
// stamped, or else a digest of the module's Go sources.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev[:min(12, len(rev))] + dirty
		}
	}
	h := sha256.New()
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "go.mod")) {
			b, err := os.ReadFile(path)
			if err == nil {
				fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "src-" + hex.EncodeToString(h.Sum(nil))[:12]
}
