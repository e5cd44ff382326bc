// Package engine is the concurrent evaluation engine behind every batch
// entry point of the reproduction: the experiments Lab, the mppm facade
// batch API and the mppmd prediction service all schedule work here.
//
// A Job names one evaluation — a workload mix on an LLC configuration,
// either through the analytical MPPM model (Predict) or the detailed
// reference simulator (Simulate) — and Run executes a batch of jobs on
// a bounded worker pool with cancellation, per-job error capture,
// progress callbacks and deterministic result ordering (result i always
// corresponds to job i).
//
// The engine memoizes the expensive intermediates. Single-core profiles
// are cached per (benchmark, LLC) behind a singleflight gate, so any
// number of concurrent jobs that need the same profile compute it
// exactly once — the paper's "one-time cost" becomes one time across
// the whole process, not one time per request. Profiles themselves are
// produced through the record/replay pipeline: the LLC-independent
// profiling frontend (trace + private L1/L2 + gap timing) is recorded
// once per benchmark and cached, and each (benchmark, LLC) profile is a
// cheap replay of that recording — so warming N LLC configurations
// costs about one frontend pass, not N. Detailed multi-core
// simulations run on sim.Tapes attached to the same cached recordings,
// so each core replays its recorded LLC access stream instead of its
// trace; their results, which are deterministic, are cached per
// (mix, LLC).
//
// When a persistent artifact store is configured (Config.Store), it
// forms a load-through tier under the in-memory caches: a recording or
// profile cache miss consults the store before recomputing, and
// recomputed artifacts are persisted back — so a freshly started
// replica sharing a store directory cold-starts from previously
// persisted work instead of re-running the profiling frontend.
package engine

import (
	"context"
	"fmt"
	"iter"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine/pool"
	"repro/internal/metrics"
	"repro/internal/mppmerr"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Kind selects how a Job is evaluated.
type Kind int

const (
	// Predict evaluates the analytical MPPM model (~ms per mix).
	Predict Kind = iota
	// Simulate runs the detailed multi-core reference simulator.
	Simulate
)

// String returns the kind's wire name.
func (k Kind) String() string {
	switch k {
	case Predict:
		return "predict"
	case Simulate:
		return "simulate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName parses a wire name produced by Kind.String.
func KindByName(name string) (Kind, error) {
	switch name {
	case "predict", "":
		return Predict, nil
	case "simulate":
		return Simulate, nil
	default:
		return 0, fmt.Errorf("engine: unknown job kind %q", name)
	}
}

// Job is one (mix, LLC, contention model, kind) evaluation request.
type Job struct {
	Mix  workload.Mix
	LLC  cache.Config
	Kind Kind
	// Opts tunes the MPPM solver (contention model, smoothing, ...).
	// Ignored for Simulate jobs.
	Opts core.Options
	// Profiles, when non-nil, supplies the single-core profiles
	// explicitly instead of the engine's per-(benchmark, LLC)
	// singleflight cache — the path for derived or deserialized profile
	// sets, whose members need not belong to the synthetic suite.
	Profiles *profile.Set
}

// Result is the outcome of one Job. Exactly one of Err or the payload
// fields is meaningful: on success Prediction (Predict jobs) or
// Simulation (Simulate jobs) is set and the shared summary fields
// (SingleCPI, MultiCPI, Slowdown, STP, ANTT) are populated for both
// kinds, so model and simulation results are directly comparable.
type Result struct {
	Job Job
	Err error

	Prediction *core.Result
	Simulation *sim.MulticoreResult

	Benchmarks []string
	SingleCPI  []float64
	MultiCPI   []float64
	Slowdown   []float64
	STP        float64
	ANTT       float64
}

// Config shapes an Engine.
type Config struct {
	// TraceLength and IntervalLength scale the simulator; zero means the
	// paper-scale defaults (10M / 200K instructions).
	TraceLength    int64
	IntervalLength int64
	// Workers bounds the worker pool; zero or negative means GOMAXPROCS.
	Workers int
	// OnProgress, when non-nil, is called after each job of a Run batch
	// completes with the number of finished jobs and the batch size. It
	// must be safe for concurrent use.
	OnProgress func(done, total int)
	// OnJob, when non-nil, is called after each job of a Run or Stream
	// batch with its timing breakdown (queue wait and run duration) and
	// outcome — the signal behind the service's job-latency metrics.
	// It must be safe for concurrent use.
	OnJob func(JobTiming)
	// Store, when non-nil, is the persistent artifact tier under the
	// in-memory singleflight caches: recording and profile cache misses
	// consult it before recomputing, and recomputed artifacts are
	// persisted back, so replicas sharing a store directory cold-start
	// from each other's work. Store failures never fail an evaluation —
	// every load problem degrades to a recompute.
	Store *store.Store
	// MaxCachedRecordings/MaxCachedProfiles/MaxCachedSims bound the
	// in-memory caches; zero or negative means the package defaults.
	// Entries past the bound are still singleflight-deduplicated while
	// in flight but are not retained.
	MaxCachedRecordings int
	MaxCachedProfiles   int
	MaxCachedSims       int
}

// Engine schedules evaluation jobs over a bounded worker pool and owns
// the process-wide profile and simulation caches. It is safe for
// concurrent use by multiple goroutines (e.g. HTTP handlers).
type Engine struct {
	cfg Config

	mu         sync.Mutex
	recordings map[string]*call[*sim.Tape]
	profiles   map[profileKey]*call[*profile.Profile]
	sims       map[simKey]*call[*sim.MulticoreResult]

	recordingComputes atomic.Int64
	profileComputes   atomic.Int64
	simComputes       atomic.Int64
}

// call is a singleflight slot: the first goroutine to claim a key
// computes; everyone else waits on done (or their context).
type call[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// kernels pools model evaluation kernels process-wide: every Predict
// job borrows one for the duration of its run, so concurrent
// eval/sweep/stress traffic (and the mppmd service on top of it) reuses
// per-run scratch across jobs instead of reallocating it. The pool is
// shared by all engines — kernel scratch is workload-shaped, not
// engine-shaped.
var kernels = sync.Pool{New: func() any { return core.NewKernel() }}

// New returns an Engine with the given configuration.
func New(cfg Config) *Engine {
	if cfg.TraceLength == 0 {
		cfg.TraceLength = trace.DefaultTraceLength
	}
	if cfg.IntervalLength == 0 {
		cfg.IntervalLength = profile.DefaultIntervalLength
	}
	if cfg.MaxCachedRecordings <= 0 {
		cfg.MaxCachedRecordings = maxCachedRecordings
	}
	if cfg.MaxCachedProfiles <= 0 {
		cfg.MaxCachedProfiles = maxCachedProfiles
	}
	if cfg.MaxCachedSims <= 0 {
		cfg.MaxCachedSims = maxCachedSims
	}
	return &Engine{
		cfg:        cfg,
		recordings: make(map[string]*call[*sim.Tape]),
		profiles:   make(map[profileKey]*call[*profile.Profile]),
		sims:       make(map[simKey]*call[*sim.MulticoreResult]),
	}
}

// Store returns the engine's persistent artifact store, or nil when the
// engine is memory-only.
func (e *Engine) Store() *store.Store { return e.cfg.Store }

// CacheSizes reports how many recordings, profiles and detailed
// simulations the in-memory caches currently retain — the live
// complement to the cumulative computation counters, surfaced by the
// mppmd /v1/stats endpoint and asserted by the cache-bound tests.
func (e *Engine) CacheSizes() (recordings, profiles, sims int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.recordings), len(e.profiles), len(e.sims)
}

// SimConfig returns the simulator configuration the engine uses for an
// LLC configuration.
func (e *Engine) SimConfig(llc cache.Config) sim.Config {
	cfg := sim.DefaultConfig(llc)
	cfg.TraceLength = e.cfg.TraceLength
	cfg.IntervalLength = e.cfg.IntervalLength
	return cfg
}

// maxCachedSims bounds the detailed-simulation result cache. Profiles
// live in a finite space (suite x LLC configs) and are kept forever,
// but the mix space is combinatorial: a long-running service fed
// distinct mixes would otherwise grow without bound. Beyond the cap,
// results are still singleflight-deduplicated while in flight but are
// not retained.
const maxCachedSims = 4096

// maxCachedRecordings bounds the frontend-recording cache. A recording
// costs ~25 bytes per LLC access (tens of MB per benchmark at paper
// scale), which is the deliberate price of cheap per-config replays for
// the finite synthetic suite — but the key space admits arbitrary
// caller-supplied specs, so beyond the cap recordings are still
// singleflight-deduplicated while in flight and then dropped instead of
// retained. The suite (29 benchmarks) fits well under the cap. Each
// entry also holds the benchmark's tape, whose later trace passes cost
// about as much again per pass the detailed simulations have needed;
// the cap bounds them with their recordings.
const maxCachedRecordings = 64

// maxCachedProfiles bounds the profile cache. The synthetic suite times
// the Table 2 configurations (29 x 6 = 174 profiles) fits with two
// orders of magnitude of headroom; the cap exists because the key space
// also admits arbitrary caller-supplied specs and custom LLC geometries.
const maxCachedProfiles = 8192

// llcKey identifies an LLC configuration for cache keying. Geometry is
// included so two custom configs sharing a name cannot alias. It is a
// comparable struct rather than a formatted string: building one is
// allocation-free, which matters because every job of a sweep keys the
// profile cache once per mix slot.
type llcKey struct {
	name    string
	size    int64
	ways    int
	line    int64
	latency int
}

func keyOf(llc cache.Config) llcKey {
	return llcKey{name: llc.Name, size: llc.SizeBytes, ways: llc.Ways,
		line: llc.LineSize, latency: llc.LatencyCycles}
}

// profileKey identifies one (benchmark, LLC) profile.
type profileKey struct {
	bench string
	llc   llcKey
}

// simKey identifies one (mix, LLC) detailed simulation.
type simKey struct {
	mix string
	llc llcKey
}

// ProfileComputations reports how many single-core profiles the engine
// has actually produced (profile-cache misses; each is a replay of the
// benchmark's cached frontend recording). Used by tests to assert the
// singleflight property; handy for ops counters too.
func (e *Engine) ProfileComputations() int64 { return e.profileComputes.Load() }

// RecordingComputations reports how many profiling-frontend recordings
// the engine has actually run (recording-cache misses) — the number of
// full trace passes spent on profiling, regardless of how many LLC
// configurations were warmed from them.
func (e *Engine) RecordingComputations() int64 { return e.recordingComputes.Load() }

// SimulationComputations reports how many detailed multi-core
// simulations the engine has actually run (cache misses).
func (e *Engine) SimulationComputations() int64 { return e.simComputes.Load() }

// claim looks up key in calls, returning either an existing slot
// (owned=false) or a freshly inserted one the caller must complete
// (owned=true).
func claim[K comparable, T any](mu *sync.Mutex, calls map[K]*call[T], key K) (c *call[T], owned bool) {
	mu.Lock()
	defer mu.Unlock()
	if c, ok := calls[key]; ok {
		return c, false
	}
	c = &call[T]{done: make(chan struct{})}
	calls[key] = c
	return c, true
}

// finish completes a claimed slot. Errors are evicted so a later call
// can retry; successful values stay cached forever.
func finish[K comparable, T any](mu *sync.Mutex, calls map[K]*call[T], key K, c *call[T], val T, err error) {
	c.val, c.err = val, err
	if err != nil {
		mu.Lock()
		delete(calls, key)
		mu.Unlock()
	}
	close(c.done)
}

// await blocks until a slot completes or ctx is cancelled.
func await[T any](ctx context.Context, c *call[T]) (T, error) {
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// capEvict enforces a cache bound after a successful insert by dropping
// the just-completed entry when the cache is over its cap: the entry's
// waiters still receive the value through the call slot, it just is not
// retained for future lookups.
func capEvict[K comparable, T any](mu *sync.Mutex, calls map[K]*call[T], max int, key K) {
	mu.Lock()
	if len(calls) > max {
		delete(calls, key)
	}
	mu.Unlock()
}

// storeSpan opens a store-phase child span ("store.load"/"store.save")
// when ctx belongs to a sampled trace, nil otherwise. The store's own
// methods take no context, so its trace phases are stamped here at the
// engine call sites.
func storeSpan(ctx context.Context, name, kind, benchmark string) *obs.Span {
	if !obs.TraceSampled(ctx) {
		return nil
	}
	_, sp := obs.StartSpan(ctx, obs.Store, name)
	sp.SetAttr("kind", kind)
	sp.SetAttr("benchmark", benchmark)
	return sp
}

// tape returns the tape over the profiling-frontend recording of one
// benchmark, recording it at most once per benchmark across all
// concurrent callers. The recording is LLC-independent, so it is keyed
// by name alone; llc only parameterizes the sim.Config the frontend
// validates against. Profiles replay the tape's recording, and detailed
// simulations run on the tape, which keeps the trace passes they add
// for as long as the recording stays cached. Recordings for the finite
// synthetic suite are retained for the engine's lifetime.
func (e *Engine) tape(ctx context.Context, spec trace.Spec, llc cache.Config) (*sim.Tape, error) {
	c, owned := claim(&e.mu, e.recordings, spec.Name)
	if !owned {
		return await(ctx, c)
	}
	cfg := e.SimConfig(llc)
	traced := obs.Engine.Enabled(obs.LevelInfo)
	var start time.Time
	if traced {
		start = time.Now()
	}
	var rec *sim.Recording
	var err error
	fromStore := false
	if st := e.cfg.Store; st != nil {
		lsp := storeSpan(ctx, "store.load", "recording", spec.Name)
		rec, _ = st.LoadRecording(spec, cfg)
		fromStore = rec != nil
		if lsp != nil {
			lsp.SetAttr("hit", strconv.FormatBool(fromStore))
			lsp.End()
		}
	}
	if rec == nil {
		e.recordingComputes.Add(1)
		rec, err = sim.RecordSpec(ctx, spec, cfg)
		if err == nil && e.cfg.Store != nil {
			ssp := storeSpan(ctx, "store.save", "recording", spec.Name)
			// Best-effort persist; the counters record failures.
			_ = e.cfg.Store.SaveRecording(spec, cfg, rec)
			ssp.End()
		}
	}
	if traced {
		obs.Engine.Log(ctx, obs.LevelInfo, "recording ready",
			"benchmark", spec.Name, "from_store", fromStore,
			"elapsed", time.Since(start), "err", err)
	}
	var t *sim.Tape
	if err == nil {
		var rd *trace.Reader
		if rd, err = trace.NewReader(spec, cfg.TraceLength); err == nil {
			t, err = sim.NewTape(rec, rd)
		}
	}
	if err == nil {
		capEvict(&e.mu, e.recordings, e.cfg.MaxCachedRecordings, spec.Name)
	}
	finish(&e.mu, e.recordings, spec.Name, c, t, err)
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Profile returns the single-core profile of one benchmark under an LLC
// configuration, computing it at most once per (benchmark, LLC) across
// all concurrent callers. A profile-cache miss replays the benchmark's
// cached frontend recording through the requested LLC geometry, so only
// the first config of a benchmark pays a full trace pass; every further
// config costs a replay of the (much shorter) LLC access stream. Replay
// output is bit-identical to a direct sim.Profile run.
func (e *Engine) Profile(ctx context.Context, spec trace.Spec, llc cache.Config) (*profile.Profile, error) {
	key := profileKey{bench: spec.Name, llc: keyOf(llc)}
	c, owned := claim(&e.mu, e.profiles, key)
	if !owned {
		return await(ctx, c)
	}
	traced := obs.Engine.Enabled(obs.LevelDebug)
	var start time.Time
	if traced {
		start = time.Now()
	}
	var p *profile.Profile
	var err error
	fromStore := false
	if st := e.cfg.Store; st != nil {
		lsp := storeSpan(ctx, "store.load", "profile", spec.Name)
		p, _ = st.LoadProfile(spec, e.SimConfig(llc), sim.ProfileOptions{})
		fromStore = p != nil
		if lsp != nil {
			lsp.SetAttr("llc", llc.Name)
			lsp.SetAttr("hit", strconv.FormatBool(fromStore))
			lsp.End()
		}
	}
	if p == nil {
		e.profileComputes.Add(1)
		p, err = e.replayProfile(ctx, spec, llc)
		if err == nil && e.cfg.Store != nil {
			ssp := storeSpan(ctx, "store.save", "profile", spec.Name)
			_ = e.cfg.Store.SaveProfile(spec, e.SimConfig(llc), sim.ProfileOptions{}, p)
			ssp.End()
		}
	}
	if traced {
		obs.Engine.Log(ctx, obs.LevelDebug, "profile ready",
			"benchmark", spec.Name, "llc", llc.Name, "from_store", fromStore,
			"elapsed", time.Since(start), "err", err)
	}
	if err == nil {
		capEvict(&e.mu, e.profiles, e.cfg.MaxCachedProfiles, key)
	}
	finish(&e.mu, e.profiles, key, c, p, err)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (e *Engine) replayProfile(ctx context.Context, spec trace.Spec, llc cache.Config) (*profile.Profile, error) {
	t, err := e.tape(ctx, spec, llc)
	if err != nil {
		return nil, err
	}
	return t.Recording().Replay(ctx, e.SimConfig(llc), sim.ProfileOptions{})
}

// ProfileSet profiles the whole synthetic suite under an LLC
// configuration in parallel and returns the profiles as a set — the
// engine-cached equivalent of sim.ProfileSuite.
func (e *Engine) ProfileSet(ctx context.Context, llc cache.Config) (*profile.Set, error) {
	return e.ProfileSpecs(ctx, trace.Suite(), llc)
}

// ProfileSpecs profiles the given benchmarks under an LLC configuration
// in parallel, each at most once per (benchmark, LLC) across all
// concurrent callers.
func (e *Engine) ProfileSpecs(ctx context.Context, specs []trace.Spec, llc cache.Config) (*profile.Set, error) {
	profiles := make([]*profile.Profile, len(specs))
	err := pool.Map(ctx, len(specs), e.cfg.Workers, func(ctx context.Context, i int) error {
		p, err := e.Profile(ctx, specs[i], llc)
		if err != nil {
			return err
		}
		profiles[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return profile.NewSet(profiles...), nil
}

// ProfileConfigs warms the engine's profile cache for every
// (benchmark, LLC) pair of specs x llcs and returns one profile set per
// LLC configuration, aligned with llcs. Each benchmark's profiling
// frontend is recorded at most once (singleflight across all concurrent
// callers) and the per-config profiles are fanned out as replays of
// that recording on the worker pool, so warming N configurations costs
// about one full trace pass per benchmark instead of N — the cold-start
// path behind Eval sweeps, /v1/eval and the Lab.
func (e *Engine) ProfileConfigs(ctx context.Context, specs []trace.Spec, llcs []cache.Config) ([]*profile.Set, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("engine: no benchmarks to profile")
	}
	if len(llcs) == 0 {
		return nil, fmt.Errorf("engine: no LLC configurations to profile")
	}
	profiles := make([]*profile.Profile, len(specs)*len(llcs))
	err := pool.Map(ctx, len(profiles), e.cfg.Workers, func(ctx context.Context, i int) error {
		spec, llc := specs[i%len(specs)], llcs[i/len(specs)]
		p, err := e.Profile(ctx, spec, llc)
		if err != nil {
			return err
		}
		profiles[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	sets := make([]*profile.Set, len(llcs))
	for c := range llcs {
		sets[c] = profile.NewSet(profiles[c*len(specs) : (c+1)*len(specs)]...)
	}
	return sets, nil
}

// mixSpecs resolves mix names to suite trace specs.
func mixSpecs(mix workload.Mix) ([]trace.Spec, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("engine: %w", mppmerr.ErrEmptyMix)
	}
	specs := make([]trace.Spec, len(mix))
	for i, n := range mix {
		s, err := trace.ByName(n)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// mixProfiles fetches the per-slot profiles of a mix: from the job's
// explicit profile set when one is given, otherwise from the engine
// cache (computing each at most once).
func (e *Engine) mixProfiles(ctx context.Context, job Job, llc cache.Config) ([]*profile.Profile, error) {
	ps := make([]*profile.Profile, len(job.Mix))
	if job.Profiles != nil {
		for i, n := range job.Mix {
			p, err := job.Profiles.Get(n)
			if err != nil {
				return nil, err
			}
			ps[i] = p
		}
		return ps, nil
	}
	specs, err := mixSpecs(job.Mix)
	if err != nil {
		return nil, err
	}
	for i, s := range specs {
		p, err := e.Profile(ctx, s, llc)
		if err != nil {
			return nil, err
		}
		ps[i] = p
	}
	return ps, nil
}

// simulate returns the detailed multi-core simulation of a mix,
// computing it at most once per (mix, LLC) across concurrent callers.
func (e *Engine) simulate(ctx context.Context, mix workload.Mix, specs []trace.Spec, llc cache.Config) (*sim.MulticoreResult, error) {
	key := simKey{mix: mix.Key(), llc: keyOf(llc)}
	c, owned := claim(&e.mu, e.sims, key)
	if !owned {
		return await(ctx, c)
	}
	e.simComputes.Add(1)
	var sp *obs.Span
	if obs.TraceSampled(ctx) {
		ctx, sp = obs.StartSpan(ctx, obs.Sim, "sim.multicore")
		sp.SetAttr("mix", mix.Key())
		sp.SetAttr("llc", llc.Name)
	}
	res, err := e.simulateTapes(ctx, specs, llc)
	sp.EndErr(err)
	if err == nil {
		capEvict(&e.mu, e.sims, e.cfg.MaxCachedSims, key)
	}
	finish(&e.mu, e.sims, key, c, res, err)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// simulateTapes runs the detailed multi-core simulation of specs on the
// benchmarks' cached tapes, bit-identical to sim.RunMulticore.
func (e *Engine) simulateTapes(ctx context.Context, specs []trace.Spec, llc cache.Config) (*sim.MulticoreResult, error) {
	tapes := make([]*sim.Tape, len(specs))
	for i, s := range specs {
		t, err := e.tape(ctx, s, llc)
		if err != nil {
			return nil, err
		}
		tapes[i] = t
	}
	return sim.RunMulticoreTapes(ctx, tapes, e.SimConfig(llc))
}

// Predictions unpacks a batch of Predict results, failing on the first
// per-job error — the shared tail of every batch-predict entry point.
func Predictions(results []Result) ([]*core.Result, error) {
	out := make([]*core.Result, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Prediction
	}
	return out, nil
}

// Simulations unpacks a batch of Simulate results, failing on the
// first per-job error.
func Simulations(results []Result) ([]*sim.MulticoreResult, error) {
	out := make([]*sim.MulticoreResult, len(results))
	for i, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		out[i] = r.Simulation
	}
	return out, nil
}

// runJob evaluates one job, with its error captured in the Result.
func (e *Engine) runJob(ctx context.Context, job Job) Result {
	res := Result{Job: job}
	if len(job.Mix) == 0 {
		res.Err = fmt.Errorf("engine: %w", mppmerr.ErrEmptyMix)
		return res
	}
	if err := job.LLC.Validate(); err != nil {
		res.Err = err
		return res
	}
	profiles, err := e.mixProfiles(ctx, job, job.LLC)
	if err != nil {
		res.Err = err
		return res
	}

	switch job.Kind {
	case Predict:
		k := kernels.Get().(*core.Kernel)
		pred, err := k.Run(profiles, job.Opts)
		kernels.Put(k)
		if err != nil {
			res.Err = err
			return res
		}
		res.Prediction = pred
		res.Benchmarks = pred.Benchmarks
		res.SingleCPI = pred.SingleCPI
		res.MultiCPI = pred.MultiCPI
		res.Slowdown = pred.Slowdown
		res.STP = pred.STP
		res.ANTT = pred.ANTT

	case Simulate:
		specs, err := mixSpecs(job.Mix)
		if err != nil {
			res.Err = err
			return res
		}
		meas, err := e.simulate(ctx, job.Mix, specs, job.LLC)
		if err != nil {
			res.Err = err
			return res
		}
		sc := make([]float64, len(profiles))
		for i, p := range profiles {
			sc[i] = p.CPI()
		}
		res.Simulation = meas
		res.Benchmarks = meas.Benchmarks
		res.SingleCPI = sc
		res.MultiCPI = meas.CPI
		if res.Slowdown, err = metrics.Slowdowns(sc, meas.CPI); err != nil {
			res.Err = err
			return res
		}
		if res.STP, err = metrics.STP(sc, meas.CPI); err != nil {
			res.Err = err
			return res
		}
		if res.ANTT, err = metrics.ANTT(sc, meas.CPI); err != nil {
			res.Err = err
			return res
		}

	default:
		res.Err = fmt.Errorf("engine: unknown job kind %d", job.Kind)
	}
	return res
}

// JobTiming is the per-job latency breakdown reported to Config.OnJob:
// how long the job sat queued behind the bounded worker pool before a
// worker picked it up, and how long the evaluation itself ran. The
// split makes saturation visible — a loaded replica shows queue wait
// growing while run time stays flat.
type JobTiming struct {
	// Index is the job's position in its Run/Stream batch.
	Index int
	// Kind is the job's evaluation kind.
	Kind Kind
	// QueueWait is the time between batch submission and the start of
	// the job's run.
	QueueWait time.Duration
	// Run is the job's execution time on its worker.
	Run time.Duration
	// Err is the job's outcome (nil on success).
	Err error
}

// timedJob evaluates one batch job with its latency breakdown: the
// always-on obs instruments record queue wait and run time (a few
// atomic operations), Config.OnJob gets the full JobTiming, and — only
// when engine tracing is enabled — the job is stamped with a trace ID
// and start/done records are emitted. When the batch belongs to a
// sampled trace, the queue-wait and run phases become child spans
// ("engine.queue", "engine.run") under the request's span. With
// tracing and spans off this adds two time.Now calls and no
// allocations to the hot path.
func (e *Engine) timedJob(ctx context.Context, i int, job Job, batchStart time.Time) Result {
	start := time.Now()
	queueWait := start.Sub(batchStart)
	var sp *obs.Span
	if obs.TraceSampled(ctx) {
		obs.RecordSpanAt(ctx, obs.Engine, "engine.queue", batchStart, queueWait, nil,
			"kind", job.Kind.String())
		ctx, sp = obs.StartSpan(ctx, obs.Engine, "engine.run")
		sp.SetAttr("kind", job.Kind.String())
		sp.SetAttr("mix", job.Mix.Key())
		sp.SetAttr("llc", job.LLC.Name)
	}
	if obs.Engine.Enabled(obs.LevelDebug) {
		ctx = obs.WithJobID(ctx, obs.NextID("job"))
		obs.Engine.Log(ctx, obs.LevelDebug, "job start",
			"kind", job.Kind.String(), "mix", job.Mix.Key(), "llc", job.LLC.Name,
			"queue_wait", queueWait)
	}
	r := e.runJob(ctx, job)
	run := time.Since(start)
	sp.EndErr(r.Err)
	obs.EngineJobsTotal.Inc()
	if r.Err != nil {
		obs.EngineJobErrorsTotal.Inc()
	}
	obs.EngineJobQueueSeconds.Observe(queueWait.Seconds())
	obs.EngineJobRunSeconds.Observe(run.Seconds())
	if e.cfg.OnJob != nil {
		e.cfg.OnJob(JobTiming{Index: i, Kind: job.Kind, QueueWait: queueWait, Run: run, Err: r.Err})
	}
	if obs.Engine.Enabled(obs.LevelDebug) {
		obs.Engine.Log(ctx, obs.LevelDebug, "job done",
			"kind", job.Kind.String(), "run", run, "err", r.Err)
	}
	return r
}

// Run evaluates a batch of jobs on the worker pool and returns results
// aligned with the input order: results[i] is the outcome of jobs[i].
// Per-job failures are captured in Result.Err and do not abort the
// batch; Run itself fails only on context cancellation (returning
// ctx.Err()) or an empty batch.
func (e *Engine) Run(ctx context.Context, jobs []Job) ([]Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("engine: no jobs")
	}
	results := make([]Result, len(jobs))
	var done atomic.Int64
	batchStart := time.Now()
	err := pool.Map(ctx, len(jobs), e.cfg.Workers, func(ctx context.Context, i int) error {
		r := e.timedJob(ctx, i, jobs[i], batchStart)
		// A job that failed only because the batch was cancelled should
		// surface as batch cancellation, not a per-job error.
		if r.Err != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		results[i] = r
		if e.cfg.OnProgress != nil {
			e.cfg.OnProgress(int(done.Add(1)), len(jobs))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Stream evaluates a batch of jobs on the worker pool and yields
// (index, result) pairs in input order as results become available, so
// a large sweep's consumer can start processing (or forwarding) result
// 0 while result 10000 is still computing. Per-job failures are
// captured in Result.Err exactly as in Run.
//
// The stream is truncated by context cancellation: jobs that were not
// finished when ctx was cancelled are never yielded, and the consumer
// observes ctx.Err() on its own context. Breaking out of the iteration
// early cancels the remaining work.
func (e *Engine) Stream(ctx context.Context, jobs []Job) iter.Seq2[int, Result] {
	return func(yield func(int, Result) bool) {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()

		type slot struct {
			i int
			r Result
		}
		// Buffered to len(jobs): workers never block on the consumer, so
		// an early break cannot strand a worker on a dead channel.
		ch := make(chan slot, len(jobs))
		batchStart := time.Now()
		go func() {
			defer close(ch)
			_ = pool.Map(ctx, len(jobs), e.cfg.Workers, func(ctx context.Context, i int) error {
				r := e.timedJob(ctx, i, jobs[i], batchStart)
				// A job that failed only because the stream was cancelled
				// is dropped: cancellation truncates the stream rather than
				// surfacing as per-job errors.
				if r.Err != nil && ctx.Err() != nil {
					return ctx.Err()
				}
				ch <- slot{i, r}
				return nil
			})
		}()

		// Reorder-buffer completions into input order.
		pending := make(map[int]Result)
		next := 0
		for s := range ch {
			pending[s.i] = s.r
			for {
				r, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				if !yield(next, r) {
					return
				}
				next++
			}
		}
	}
}

// SimulateSources runs the detailed multi-core simulator over arbitrary
// trace sources, one per core. Sources are opaque streams, so unlike
// suite mixes the result is not cached; the call still honors ctx.
func (e *Engine) SimulateSources(ctx context.Context, srcs []trace.Source, llc cache.Config) (*sim.MulticoreResult, error) {
	return sim.RunMulticoreSources(ctx, srcs, e.SimConfig(llc), nil)
}

// ProfileSource profiles one arbitrary trace source under an LLC
// configuration. Like SimulateSources it is uncached.
func (e *Engine) ProfileSource(ctx context.Context, src trace.Source, llc cache.Config) (*profile.Profile, error) {
	return sim.ProfileSource(ctx, src, e.SimConfig(llc), sim.ProfileOptions{})
}

// SweepJobs builds the len(llcs) x len(mixes) job grid of a sweep in
// row-major order (all mixes of llcs[0] first).
func SweepJobs(mixes []workload.Mix, llcs []cache.Config, kind Kind, opts core.Options) []Job {
	jobs := make([]Job, 0, len(mixes)*len(llcs))
	for _, llc := range llcs {
		for _, mix := range mixes {
			jobs = append(jobs, Job{Mix: mix, LLC: llc, Kind: kind, Opts: opts})
		}
	}
	return jobs
}
