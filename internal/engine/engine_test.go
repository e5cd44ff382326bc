package engine

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mppmerr"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testScale keeps engine tests fast: 1/50 of the paper's trace length.
const (
	testTraceLen = 200_000
	testInterval = 10_000
)

func newTestEngine(workers int) *Engine {
	return New(Config{
		TraceLength:    testTraceLen,
		IntervalLength: testInterval,
		Workers:        workers,
	})
}

func testMixes(t *testing.T, count, cores int) []workload.Mix {
	t.Helper()
	s, err := workload.NewSampler(trace.SuiteNames(), 7)
	if err != nil {
		t.Fatal(err)
	}
	mixes, err := s.RandomMixes(count, cores, true)
	if err != nil {
		t.Fatal(err)
	}
	return mixes
}

func TestRunDeterministicOrder(t *testing.T) {
	mixes := testMixes(t, 24, 2)
	llc := cache.LLCConfigs()[0]
	jobs := SweepJobs(mixes, []cache.Config{llc}, Predict, core.Options{})

	// Two engines with different worker counts must produce identical
	// results in identical positions.
	ref, err := newTestEngine(1).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := newTestEngine(8).Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if ref[i].Err != nil || got[i].Err != nil {
			t.Fatalf("job %d failed: %v / %v", i, ref[i].Err, got[i].Err)
		}
		if ref[i].Job.Mix.Key() != mixes[i].Key() || got[i].Job.Mix.Key() != mixes[i].Key() {
			t.Fatalf("job %d result misaligned with input order", i)
		}
		if ref[i].STP != got[i].STP || ref[i].ANTT != got[i].ANTT {
			t.Fatalf("job %d: STP/ANTT differ across worker counts: %v/%v vs %v/%v",
				i, ref[i].STP, ref[i].ANTT, got[i].STP, got[i].ANTT)
		}
	}
}

func TestRunCancellationMidSweep(t *testing.T) {
	mixes := testMixes(t, 64, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	eng := New(Config{
		TraceLength:    testTraceLen,
		IntervalLength: testInterval,
		Workers:        2,
		OnProgress: func(done, total int) {
			if done == 3 {
				cancel()
			}
		},
	})
	jobs := SweepJobs(mixes, cache.LLCConfigs()[:2], Predict, core.Options{})
	_, err := eng.Run(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestProfileCacheSingleflight(t *testing.T) {
	eng := newTestEngine(0)
	llc := cache.LLCConfigs()[0]
	specs := trace.Suite()[:4]

	// Hammer the same four profiles from 32 goroutines.
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, s := range specs {
				if _, err := eng.Profile(context.Background(), s, llc); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.ProfileComputations(); got != int64(len(specs)) {
		t.Fatalf("computed %d profiles for %d (benchmark, LLC) pairs", got, len(specs))
	}

	// The same profiles under a different LLC are distinct cache entries.
	if _, err := eng.Profile(context.Background(), specs[0], cache.LLCConfigs()[1]); err != nil {
		t.Fatal(err)
	}
	if got := eng.ProfileComputations(); got != int64(len(specs))+1 {
		t.Fatalf("second LLC config did not create a new cache entry: %d computations", got)
	}
}

func TestSweepComputesEachProfileOnce(t *testing.T) {
	eng := newTestEngine(0)
	mixes := testMixes(t, 40, 4)
	llcs := cache.LLCConfigs()[:2]

	grid, err := eng.Sweep(context.Background(), mixes, llcs, Predict, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != len(llcs) || len(grid[0]) != len(mixes) {
		t.Fatalf("grid shape %dx%d, want %dx%d", len(grid), len(grid[0]), len(llcs), len(mixes))
	}
	distinct := make(map[string]bool)
	for _, llc := range llcs {
		for _, mix := range mixes {
			for _, b := range mix {
				distinct[b+"/"+llc.Name] = true
			}
		}
	}
	if got := eng.ProfileComputations(); got != int64(len(distinct)) {
		t.Fatalf("computed %d profiles, want exactly %d distinct (benchmark, LLC) pairs",
			got, len(distinct))
	}
	for c := range grid {
		for m := range grid[c] {
			if grid[c][m].Err != nil {
				t.Fatalf("sweep job (%d,%d): %v", c, m, grid[c][m].Err)
			}
		}
	}
}

func TestSimulationCache(t *testing.T) {
	eng := newTestEngine(0)
	mix := workload.Mix{"gamess", "lbm"}
	llc := cache.LLCConfigs()[0]
	jobs := []Job{{Mix: mix, LLC: llc, Kind: Simulate}, {Mix: mix, LLC: llc, Kind: Simulate}}
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
	}
	if got := eng.SimulationComputations(); got != 1 {
		t.Fatalf("ran %d detailed simulations for one distinct (mix, LLC), want 1", got)
	}
	if results[0].Simulation != results[1].Simulation {
		t.Fatal("cached simulation not shared")
	}
	if results[0].STP <= 0 || results[0].ANTT <= 0 {
		t.Fatalf("degenerate metrics: STP=%v ANTT=%v", results[0].STP, results[0].ANTT)
	}
}

func TestRunPerJobErrorCapture(t *testing.T) {
	eng := newTestEngine(0)
	llc := cache.LLCConfigs()[0]
	jobs := []Job{
		{Mix: workload.Mix{"gamess", "lbm"}, LLC: llc, Kind: Predict},
		{Mix: workload.Mix{"no-such-benchmark"}, LLC: llc, Kind: Predict},
		{Mix: workload.Mix{"mcf", "milc"}, LLC: llc, Kind: Predict},
	}
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "no-such-benchmark") {
		t.Fatalf("bad job error = %v, want unknown-benchmark", results[1].Err)
	}
}

func TestPredictMatchesCore(t *testing.T) {
	eng := newTestEngine(0)
	llc := cache.LLCConfigs()[0]
	mix := workload.Mix{"gamess", "lbm", "soplex", "mcf"}
	results, err := eng.Run(context.Background(), []Job{{Mix: mix, LLC: llc, Kind: Predict}})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	set, err := eng.ProfileSet(context.Background(), llc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Predict(set, mix, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := results[0].Prediction; got.STP != want.STP || got.ANTT != want.ANTT {
		t.Fatalf("engine prediction STP/ANTT %v/%v != core %v/%v",
			got.STP, got.ANTT, want.STP, want.ANTT)
	}
}

func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]bool)
	var total int
	eng := New(Config{
		TraceLength:    testTraceLen,
		IntervalLength: testInterval,
		OnProgress: func(done, t int) {
			mu.Lock()
			seen[done] = true
			total = t
			mu.Unlock()
		},
	})
	mixes := testMixes(t, 10, 2)
	jobs := SweepJobs(mixes, cache.LLCConfigs()[:1], Predict, core.Options{})
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if total != len(jobs) {
		t.Fatalf("progress total %d, want %d", total, len(jobs))
	}
	for i := 1; i <= len(jobs); i++ {
		if !seen[i] {
			t.Fatalf("progress callback never reported done=%d", i)
		}
	}
}

func TestStreamOrderedIncremental(t *testing.T) {
	eng := newTestEngine(4)
	mixes := testMixes(t, 16, 2)
	jobs := SweepJobs(mixes, cache.LLCConfigs()[:1], Predict, core.Options{})

	want, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for i, r := range eng.Stream(context.Background(), jobs) {
		if i != next {
			t.Fatalf("stream yielded index %d, want %d", i, next)
		}
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if r.STP != want[i].STP {
			t.Fatalf("job %d: stream STP %v != run STP %v", i, r.STP, want[i].STP)
		}
		next++
	}
	if next != len(jobs) {
		t.Fatalf("stream yielded %d results, want %d", next, len(jobs))
	}
}

func TestStreamEarlyBreakCancelsWork(t *testing.T) {
	eng := newTestEngine(2)
	mixes := testMixes(t, 32, 2)
	jobs := SweepJobs(mixes, cache.LLCConfigs()[:1], Predict, core.Options{})
	n := 0
	for _, r := range eng.Stream(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		n++
		if n == 3 {
			break
		}
	}
	if n != 3 {
		t.Fatalf("consumed %d results, want 3", n)
	}
}

func TestStreamCancelTruncates(t *testing.T) {
	eng := newTestEngine(1)
	mixes := testMixes(t, 32, 2)
	jobs := SweepJobs(mixes, cache.LLCConfigs()[:1], Predict, core.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	for _, r := range eng.Stream(ctx, jobs) {
		if r.Err != nil {
			t.Fatalf("cancelled stream yielded a per-job error: %v", r.Err)
		}
		n++
		if n == 2 {
			cancel()
		}
	}
	if n < 2 || n == len(jobs) {
		t.Fatalf("stream yielded %d results after cancel, want a truncated stream", n)
	}
}

func TestJobExplicitProfiles(t *testing.T) {
	eng := newTestEngine(0)
	llc := cache.LLCConfigs()[0]
	set, err := eng.ProfileSet(context.Background(), llc)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.ProfileComputations()

	mix := workload.Mix{"gamess", "lbm"}
	results, err := eng.Run(context.Background(), []Job{
		{Mix: mix, LLC: llc, Kind: Predict, Profiles: set},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if got := eng.ProfileComputations(); got != before {
		t.Fatalf("explicit-profile job computed %d extra profiles", got-before)
	}

	// A set that lacks the benchmark wraps ErrNoProfiles.
	empty := profile.NewSet()
	results, err = eng.Run(context.Background(), []Job{
		{Mix: mix, LLC: llc, Kind: Predict, Profiles: empty},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, mppmerr.ErrNoProfiles) {
		t.Fatalf("missing profile error = %v, want ErrNoProfiles", results[0].Err)
	}
}

func TestTypedErrorTaxonomy(t *testing.T) {
	eng := newTestEngine(0)
	llc := cache.LLCConfigs()[0]
	results, err := eng.Run(context.Background(), []Job{
		{Mix: workload.Mix{}, LLC: llc, Kind: Predict},
		{Mix: workload.Mix{"no-such-benchmark"}, LLC: llc, Kind: Predict},
		{Mix: workload.Mix{"gamess"}, LLC: cache.Config{Name: "bad", SizeBytes: 3, Ways: 1, LineSize: 64}, Kind: Predict},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, mppmerr.ErrEmptyMix) {
		t.Fatalf("empty mix error = %v, want ErrEmptyMix", results[0].Err)
	}
	if !errors.Is(results[1].Err, mppmerr.ErrUnknownBenchmark) {
		t.Fatalf("unknown benchmark error = %v, want ErrUnknownBenchmark", results[1].Err)
	}
	if !errors.Is(results[2].Err, mppmerr.ErrBadConfig) {
		t.Fatalf("bad config error = %v, want ErrBadConfig", results[2].Err)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for _, k := range []Kind{Predict, Simulate} {
		got, err := KindByName(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, %v", k, got, err)
		}
	}
	if _, err := KindByName("bogus"); err == nil {
		t.Fatal("KindByName accepted bogus kind")
	}
	if k, err := KindByName(""); err != nil || k != Predict {
		t.Fatalf("empty kind: got %v, %v, want Predict", k, err)
	}
}

// TestProfileConfigsRecordsOnce is the cold-start property of the
// record/replay pipeline: warming the suite across N LLC configurations
// runs each benchmark's profiling frontend exactly once, with every
// per-config profile a replay of that recording.
func TestProfileConfigsRecordsOnce(t *testing.T) {
	eng := newTestEngine(0)
	specs := trace.Suite()[:6]
	llcs := cache.LLCConfigs()[:4]

	sets, err := eng.ProfileConfigs(context.Background(), specs, llcs)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != len(llcs) {
		t.Fatalf("got %d sets for %d configs", len(sets), len(llcs))
	}
	if got := eng.RecordingComputations(); got != int64(len(specs)) {
		t.Fatalf("ran %d frontend recordings for %d benchmarks", got, len(specs))
	}
	if got := eng.ProfileComputations(); got != int64(len(specs)*len(llcs)) {
		t.Fatalf("computed %d profiles for %d pairs", got, len(specs)*len(llcs))
	}
	for c, llc := range llcs {
		for _, s := range specs {
			p, err := sets[c].Get(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			if p.Meta.LLC != llc {
				t.Fatalf("set %d holds profile for LLC %q, want %q", c, p.Meta.LLC.Name, llc.Name)
			}
		}
	}

	// A second warmup is fully cached: no new recordings, no replays.
	if _, err := eng.ProfileConfigs(context.Background(), specs, llcs); err != nil {
		t.Fatal(err)
	}
	if got := eng.RecordingComputations(); got != int64(len(specs)) {
		t.Fatalf("re-warm re-recorded: %d recordings", got)
	}
	if got := eng.ProfileComputations(); got != int64(len(specs)*len(llcs)) {
		t.Fatalf("re-warm re-replayed: %d profiles", got)
	}
}

// TestProfileReplayMatchesDirect pins the engine's replay-backed
// profiles to the direct simulation path bit-identically.
func TestProfileReplayMatchesDirect(t *testing.T) {
	eng := newTestEngine(0)
	spec, err := trace.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	for _, llc := range cache.LLCConfigs()[:2] {
		got, err := eng.Profile(context.Background(), spec, llc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Profile(context.Background(), spec, eng.SimConfig(llc))
		if err != nil {
			t.Fatal(err)
		}
		if got.Meta != want.Meta || len(got.Intervals) != len(want.Intervals) {
			t.Fatalf("%s: replayed profile shape differs", llc.Name)
		}
		for i := range got.Intervals {
			g, w := got.Intervals[i], want.Intervals[i]
			if g.Instructions != w.Instructions || g.Cycles != w.Cycles ||
				g.MemStall != w.MemStall || g.LLCAccesses != w.LLCAccesses {
				t.Fatalf("%s: interval %d = %+v, want %+v", llc.Name, i, g, w)
			}
		}
	}
}

// TestProfileConfigsCancellation verifies ctx cancellation propagates
// into in-flight frontend recordings, not just queued work.
func TestProfileConfigsCancellation(t *testing.T) {
	eng := newTestEngine(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.ProfileConfigs(ctx, trace.Suite()[:4], cache.LLCConfigs()[:2])
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// storeEngine builds an engine backed by a persistent artifact store.
func storeEngine(dir string) *Engine {
	return New(Config{
		TraceLength:    testTraceLen,
		IntervalLength: testInterval,
		Store:          store.Open(dir),
	})
}

// TestStoreColdStart is the replica cold-start contract: a fresh engine
// sharing a store directory with an earlier one serves its entire
// warmup from disk — zero frontend recordings, zero replays — and the
// loaded profiles are identical to the computed ones.
func TestStoreColdStart(t *testing.T) {
	dir := t.TempDir()
	specs := trace.Suite()[:5]
	llcs := cache.LLCConfigs()[:3]
	ctx := context.Background()

	first := storeEngine(dir)
	warm, err := first.ProfileConfigs(ctx, specs, llcs)
	if err != nil {
		t.Fatal(err)
	}
	if got := first.RecordingComputations(); got != int64(len(specs)) {
		t.Fatalf("first engine ran %d recordings for %d benchmarks", got, len(specs))
	}
	ss := first.Store().Stats()
	if want := int64(len(specs) + len(specs)*len(llcs)); ss.Saves != want {
		t.Fatalf("first engine persisted %d artifacts, want %d", ss.Saves, want)
	}

	// The replica: same store, fresh process-equivalent.
	second := storeEngine(dir)
	cold, err := second.ProfileConfigs(ctx, specs, llcs)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.RecordingComputations(); got != 0 {
		t.Fatalf("replica ran %d frontend recordings, want 0", got)
	}
	if got := second.ProfileComputations(); got != 0 {
		t.Fatalf("replica computed %d profiles, want 0", got)
	}
	ss = second.Store().Stats()
	if ss.ProfileHits != int64(len(specs)*len(llcs)) {
		t.Fatalf("replica store stats = %+v", ss)
	}
	for c := range llcs {
		for _, s := range specs {
			w, err := warm[c].Get(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			g, err := cold[c].Get(s.Name)
			if err != nil {
				t.Fatal(err)
			}
			if g.Meta != w.Meta || len(g.Intervals) != len(w.Intervals) {
				t.Fatalf("%s/%s: loaded profile shape differs", llcs[c].Name, s.Name)
			}
			for i := range w.Intervals {
				gi, wi := g.Intervals[i], w.Intervals[i]
				if gi.Instructions != wi.Instructions || gi.Cycles != wi.Cycles ||
					gi.MemStall != wi.MemStall || gi.LLCAccesses != wi.LLCAccesses {
					t.Fatalf("%s/%s: interval %d differs", llcs[c].Name, s.Name, i)
				}
			}
		}
	}
}

// TestStoreCorruptionRecovery: a replica facing a damaged store file
// recomputes and re-persists instead of failing or serving garbage.
func TestStoreCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	spec := trace.Suite()[0]
	llc := cache.LLCConfigs()[0]
	ctx := context.Background()

	first := storeEngine(dir)
	want, err := first.Profile(ctx, spec, llc)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in every artifact on disk.
	damaged := 0
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b[len(b)/2] ^= 0x01
		damaged++
		return os.WriteFile(path, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if damaged == 0 {
		t.Fatal("nothing persisted to damage")
	}

	second := storeEngine(dir)
	got, err := second.Profile(ctx, spec, llc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != want.Meta || got.CPI() != want.CPI() {
		t.Fatal("recovered profile differs from original")
	}
	ss := second.Store().Stats()
	if ss.Rejected == 0 {
		t.Fatalf("no rejections counted: %+v", ss)
	}
	if second.ProfileComputations() != 1 {
		t.Fatalf("replica computed %d profiles, want 1 recompute", second.ProfileComputations())
	}
	// The recompute re-persisted; a third engine loads cleanly.
	third := storeEngine(dir)
	if _, err := third.Profile(ctx, spec, llc); err != nil {
		t.Fatal(err)
	}
	if third.ProfileComputations() != 0 {
		t.Fatal("re-persisted artifact not served from store")
	}
}

// TestCacheBoundsEvict churns each in-memory cache past a tiny
// configured bound and asserts the caches actually evict — the
// configured limits are enforced, not just documented.
func TestCacheBoundsEvict(t *testing.T) {
	eng := New(Config{
		TraceLength:         testTraceLen,
		IntervalLength:      testInterval,
		MaxCachedRecordings: 2,
		MaxCachedProfiles:   3,
		MaxCachedSims:       2,
	})
	ctx := context.Background()
	specs := trace.Suite()[:6]
	llcs := cache.LLCConfigs()[:2]

	// Churn profiles (and with them recordings) across 6 benchmarks x 2
	// configs = 12 profile keys and 6 recording keys.
	for _, llc := range llcs {
		for _, s := range specs {
			if _, err := eng.Profile(ctx, s, llc); err != nil {
				t.Fatal(err)
			}
		}
	}
	recs, profs, _ := eng.CacheSizes()
	if recs > 2 {
		t.Fatalf("recording cache holds %d entries, bound is 2", recs)
	}
	if profs > 3 {
		t.Fatalf("profile cache holds %d entries, bound is 3", profs)
	}

	// Churn detailed simulations across 4 distinct mixes.
	for _, mix := range []workload.Mix{
		{"gamess", "lbm"}, {"mcf", "milc"}, {"gamess", "mcf"}, {"lbm", "milc"},
	} {
		res, err := eng.Run(ctx, []Job{{Mix: mix, LLC: llcs[0], Kind: Simulate}})
		if err != nil {
			t.Fatal(err)
		}
		if res[0].Err != nil {
			t.Fatal(res[0].Err)
		}
	}
	_, _, sims := eng.CacheSizes()
	if sims > 2 {
		t.Fatalf("simulation cache holds %d entries, bound is 2", sims)
	}

	// Eviction trades retention, not correctness: a re-request of an
	// evicted profile recomputes and still matches the direct path.
	p, err := eng.Profile(ctx, specs[0], llcs[0])
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.Profile(ctx, specs[0], eng.SimConfig(llcs[0]))
	if err != nil {
		t.Fatal(err)
	}
	if p.Meta != direct.Meta || p.CPI() != direct.CPI() {
		t.Fatal("recomputed evicted profile differs from direct path")
	}
}

// TestCacheDefaultsRetainSuite: at the default bounds nothing from a
// suite-wide warmup is evicted (the bounds exist for adversarial key
// spaces, not normal operation).
func TestCacheDefaultsRetainSuite(t *testing.T) {
	eng := newTestEngine(0)
	llcs := cache.LLCConfigs()[:2]
	if _, err := eng.ProfileConfigs(context.Background(), trace.Suite(), llcs); err != nil {
		t.Fatal(err)
	}
	recs, profs, _ := eng.CacheSizes()
	if want := len(trace.Suite()); recs != want {
		t.Fatalf("recording cache holds %d, want %d", recs, want)
	}
	if want := len(trace.Suite()) * len(llcs); profs != want {
		t.Fatalf("profile cache holds %d, want %d", profs, want)
	}
}

// TestOnJobTimings: every job of a Run batch reports its queue-wait/run
// breakdown exactly once, with indexes covering the batch and failures
// carried through — the contract behind the service's job-latency
// metrics.
func TestOnJobTimings(t *testing.T) {
	mixes := testMixes(t, 8, 2)
	llc := cache.LLCConfigs()[0]
	jobs := SweepJobs(mixes, []cache.Config{llc}, Predict, core.Options{})
	jobs = append(jobs, Job{Mix: workload.Mix{"no-such-benchmark"}, LLC: llc, Kind: Predict})

	var mu sync.Mutex
	var timings []JobTiming
	eng := New(Config{
		TraceLength:    testTraceLen,
		IntervalLength: testInterval,
		Workers:        4,
		OnJob: func(jt JobTiming) {
			mu.Lock()
			timings = append(timings, jt)
			mu.Unlock()
		},
	})
	results, err := eng.Run(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(timings) != len(jobs) {
		t.Fatalf("OnJob called %d times for %d jobs", len(timings), len(jobs))
	}
	seen := make(map[int]bool)
	for _, jt := range timings {
		if seen[jt.Index] {
			t.Fatalf("job %d reported twice", jt.Index)
		}
		seen[jt.Index] = true
		if jt.Kind != Predict {
			t.Fatalf("job %d reported kind %v", jt.Index, jt.Kind)
		}
		if jt.QueueWait < 0 {
			t.Fatalf("job %d: negative queue wait %v", jt.Index, jt.QueueWait)
		}
		if jt.Run <= 0 {
			t.Fatalf("job %d: non-positive run duration %v", jt.Index, jt.Run)
		}
		wantErr := results[jt.Index].Err != nil
		if (jt.Err != nil) != wantErr {
			t.Fatalf("job %d: timing err %v, result err %v", jt.Index, jt.Err, results[jt.Index].Err)
		}
	}
	bad := len(jobs) - 1
	if results[bad].Err == nil || !seen[bad] {
		t.Fatal("failing job not evaluated or not reported to OnJob")
	}
}

// TestOnJobTimingsStream: the streaming path reports the same per-job
// breakdown as Run.
func TestOnJobTimingsStream(t *testing.T) {
	mixes := testMixes(t, 6, 2)
	llc := cache.LLCConfigs()[0]
	jobs := SweepJobs(mixes, []cache.Config{llc}, Predict, core.Options{})

	var mu sync.Mutex
	count := 0
	eng := New(Config{
		TraceLength:    testTraceLen,
		IntervalLength: testInterval,
		Workers:        2,
		OnJob: func(jt JobTiming) {
			mu.Lock()
			count++
			mu.Unlock()
			if jt.Run <= 0 {
				t.Errorf("job %d: non-positive run duration %v", jt.Index, jt.Run)
			}
		},
	})
	for i, r := range eng.Stream(context.Background(), jobs) {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
	}
	if count != len(jobs) {
		t.Fatalf("OnJob called %d times for %d streamed jobs", count, len(jobs))
	}
}

// TestTimedJobDisabledTraceAllocs pins the zero-cost-off property on
// the engine's hot path: with every trace component off, the
// instrumented job wrapper (timing + obs counters + histograms)
// allocates exactly as much as the bare evaluation it wraps.
func TestTimedJobDisabledTraceAllocs(t *testing.T) {
	obs.SetAllLevels(obs.LevelOff)
	eng := newTestEngine(1)
	ctx := context.Background()
	llc := cache.LLCConfigs()[0]
	job := Job{Mix: workload.Mix{"gamess", "lbm"}, LLC: llc, Kind: Predict}
	// Warm the profile cache so both measurements see the steady state.
	if r := eng.runJob(ctx, job); r.Err != nil {
		t.Fatal(r.Err)
	}
	base := testing.AllocsPerRun(200, func() {
		if r := eng.runJob(ctx, job); r.Err != nil {
			t.Fatal(r.Err)
		}
	})
	start := time.Now()
	instrumented := testing.AllocsPerRun(200, func() {
		if r := eng.timedJob(ctx, 0, job, start); r.Err != nil {
			t.Fatal(r.Err)
		}
	})
	if instrumented > base {
		t.Fatalf("timedJob allocates %.1f/run vs %.1f bare: tracing off is not alloc-free",
			instrumented, base)
	}
}

// simBits renders every field of a simulation result, floats as their
// bit patterns, so two renderings are equal only for bit-identical
// results.
func simBits(r *sim.MulticoreResult) string {
	var b strings.Builder
	fmt.Fprint(&b, r.Benchmarks, r.Instructions, r.LLCAccesses, r.LLCMisses, r.LLCStats,
		math.Float64bits(r.TotalCycles))
	for i := range r.CPI {
		fmt.Fprint(&b, " ", math.Float64bits(r.CPI[i]), math.Float64bits(r.Cycles[i]))
	}
	return b.String()
}

// TestSimulateFromStoredRecording: a replica whose recordings come from
// the store simulates on tapes attached to them, runs no frontend
// recording, and matches the live simulator bit for bit.
func TestSimulateFromStoredRecording(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	mixes := []workload.Mix{{"mcf", "gamess", "lbm", "povray"}, {"soplex", "soplex", "milc"}}
	llcs := []cache.Config{cache.LLCConfigs()[0], cache.LLCConfigs()[5]}
	var specs []trace.Spec
	for _, n := range []string{"mcf", "gamess", "lbm", "povray", "soplex", "milc"} {
		s, err := trace.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	if _, err := storeEngine(dir).ProfileConfigs(ctx, specs, llcs); err != nil {
		t.Fatal(err)
	}

	replica := storeEngine(dir)
	grid, err := replica.Sweep(ctx, mixes, llcs, Simulate, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := replica.RecordingComputations(); got != 0 {
		t.Fatalf("replica ran %d frontend recordings, want 0", got)
	}
	if hits := replica.Store().Stats().RecordingHits; hits != int64(len(specs)) {
		t.Fatalf("replica loaded %d recordings from the store, want %d", hits, len(specs))
	}
	for c, llc := range llcs {
		for m, mix := range mixes {
			r := grid[c][m]
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			mspecs, err := mixSpecs(mix)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.RunMulticore(ctx, mspecs, replica.SimConfig(llc), nil)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := simBits(r.Simulation), simBits(want); got != want {
				t.Errorf("%s on %s:\n tapes %s\n live  %s", mix.Key(), llc.Name, got, want)
			}
		}
	}
}

// TestTapeEvictedWithRecording: a tape lives in its recording's cache
// entry, so a recording the MaxCachedRecordings bound does not retain
// takes its tape (and the trace passes simulations added to it) along.
func TestTapeEvictedWithRecording(t *testing.T) {
	eng := New(Config{TraceLength: testTraceLen, IntervalLength: testInterval, MaxCachedRecordings: 1})
	ctx := context.Background()
	llc := cache.LLCConfigs()[0]
	mix := workload.Mix{"gamess", "mcf"}
	res, err := eng.Run(ctx, []Job{{Mix: mix, LLC: llc, Kind: Simulate}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if recs, _, _ := eng.CacheSizes(); recs != 1 {
		t.Fatalf("recording cache holds %d entries, bound is 1", recs)
	}
	evicted := 0
	for _, name := range mix {
		spec, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng.mu.Lock()
		_, retained := eng.recordings[name]
		eng.mu.Unlock()
		before := eng.RecordingComputations()
		t1, err := eng.tape(ctx, spec, llc)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := eng.tape(ctx, spec, llc)
		if err != nil {
			t.Fatal(err)
		}
		recorded := eng.RecordingComputations() - before
		switch {
		case retained && (t1 != t2 || recorded != 0):
			t.Errorf("%s: retained recording re-recorded %d times, same tape %v", name, recorded, t1 == t2)
		case !retained && (t1 == t2 || recorded != 2):
			t.Errorf("%s: evicted recording re-recorded %d times, same tape %v", name, recorded, t1 == t2)
		}
		if !retained {
			evicted++
		}
	}
	if evicted != 1 {
		t.Fatalf("%d of the mix's recordings evicted, want 1", evicted)
	}
}

// BenchmarkSimulateTapes is BenchmarkRunMulticore4's simulation (same
// mix, scale and LLC; internal/sim) fed from the engine's tapes, which
// an untimed first run has already extended: the cost of a detailed
// simulation once the frontend work is cached.
func BenchmarkSimulateTapes(b *testing.B) {
	eng := New(Config{TraceLength: 1_000_000, IntervalLength: 50_000})
	ctx := context.Background()
	llc := cache.LLCConfigs()[0]
	specs, err := mixSpecs(workload.Mix{"gamess", "lbm", "soplex", "povray"})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := eng.simulateTapes(ctx, specs, llc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.simulateTapes(ctx, specs, llc); err != nil {
			b.Fatal(err)
		}
	}
}
