// Package mppm is the public facade of the Multi-Program Performance
// Model reproduction (Van Craeynest & Eeckhout, "The Multi-Program
// Performance Model: Debunking Current Practice in Multi-Core
// Simulation", IISWC 2011).
//
// The package wires together the internal building blocks — synthetic
// benchmark traces, the trace-driven multi-core simulator, single-core
// profiling, cache contention models and the iterative MPPM solver —
// behind one evaluation API: build a Request naming workload mixes, an
// evaluation kind (predict, simulate or compare) and LLC
// configurations, and hand it to System.Eval:
//
//	sys := mppm.NewSystem(mppm.DefaultLLC())
//	mixes := []mppm.Mix{{"gamess", "lbm", "soplex", "mcf"}}
//	res, _ := sys.Eval(ctx, mppm.NewRequest(mppm.KindCompare, mixes))
//	sc := res.Scenarios[0]
//	fmt.Println(sc.Prediction.STP, sc.Measurement.STP)
//
// Predict scenarios evaluate the analytical model in well under a
// second per mix; Simulate scenarios run the detailed reference
// simulator; Compare runs both so model and simulation are directly
// comparable (the paper's Figure 4). Everything — single mixes,
// thousand-mix batches, design-space sweeps over every Table 2 LLC,
// stress searches — executes through one concurrent evaluation engine
// with bounded workers, context cancellation and singleflight profile
// caching, and EvalStream yields sweep scenarios incrementally.
package mppm

import (
	"context"
	"fmt"
	"io"
	"sync"

	"repro/internal/cache"
	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported building blocks. The aliases keep example and downstream
// code on a single import while the implementation lives in internal
// packages.
type (
	// Benchmark describes one synthetic benchmark (see internal/trace).
	Benchmark = trace.Spec
	// LLCConfig describes a last-level cache configuration.
	LLCConfig = cache.Config
	// Profile is a single-core simulation profile.
	Profile = profile.Profile
	// ProfileSet maps benchmark names to profiles.
	ProfileSet = profile.Set
	// Prediction is an MPPM model result.
	Prediction = core.Result
	// ModelOptions tunes the MPPM solver.
	ModelOptions = core.Options
	// Mix is a multi-program workload.
	Mix = workload.Mix
	// ContentionModel estimates sharing-induced conflict misses.
	ContentionModel = contention.Model
)

// Default simulator scale: the paper's 10M-instruction traces profiled
// in 200K-instruction intervals (a uniform 1/100 of the paper's 1B
// SimPoints).
const (
	DefaultTraceLength    = trace.DefaultTraceLength
	DefaultIntervalLength = profile.DefaultIntervalLength
)

// NewProfileSet builds a ProfileSet from profiles, keyed by benchmark
// name (useful with derived profiles, see Profile.DeriveAssociativity).
func NewProfileSet(ps ...*Profile) *ProfileSet { return profile.NewSet(ps...) }

// ReadProfileSet deserializes a profile set written by
// (*ProfileSet).WriteJSON, validating every profile.
func ReadProfileSet(r io.Reader) (*ProfileSet, error) {
	return profile.ReadSetJSON(r)
}

// Benchmarks returns the 29 synthetic SPEC CPU2006 stand-ins.
func Benchmarks() []Benchmark { return trace.Suite() }

// BenchmarkNames returns the suite's benchmark names, sorted.
func BenchmarkNames() []string { return trace.SuiteNames() }

// BenchmarkByName returns one benchmark by name.
func BenchmarkByName(name string) (Benchmark, error) { return trace.ByName(name) }

// LLCConfigs returns the paper's Table 2 configurations.
func LLCConfigs() []LLCConfig { return cache.LLCConfigs() }

// LLCConfigByName returns a Table 2 configuration by name ("config#1".."config#6").
func LLCConfigByName(name string) (LLCConfig, error) { return cache.LLCConfigByName(name) }

// DefaultLLC returns configuration #1, the paper's default (smallest LLC,
// chosen "to stress our model").
func DefaultLLC() LLCConfig { return cache.LLCConfigs()[0] }

// ContentionModels returns the available cache contention models, the
// paper's FOA first.
func ContentionModels() []ContentionModel { return contention.Models() }

// ContentionModelByName returns a contention model by name.
func ContentionModelByName(name string) (ContentionModel, error) {
	return contention.ByName(name)
}

// System is a fully configured machine: the Table 1 baseline core and
// private caches plus one default shared LLC configuration, at a given
// trace scale. All evaluation runs through one lazily-built engine, so
// every Eval on a System shares cached single-core profiles and one
// bounded worker pool.
type System struct {
	cfg       sim.Config
	workers   int
	storeDir  string
	peerFetch func(kind, key string) ([]byte, error)

	engOnce sync.Once
	eng     *engine.Engine
	store   *store.Store
}

// SystemOption configures a System at construction.
type SystemOption func(*System)

// WithScale sets custom trace and profiling interval lengths (useful
// for quick experimentation; accuracy conclusions should use the
// default scale). Zero values keep the defaults.
func WithScale(traceLength, intervalLength int64) SystemOption {
	return func(s *System) {
		if traceLength != 0 {
			s.cfg.TraceLength = traceLength
		}
		if intervalLength != 0 {
			s.cfg.IntervalLength = intervalLength
		}
	}
}

// WithWorkers bounds the evaluation worker pool; zero or negative means
// GOMAXPROCS.
func WithWorkers(n int) SystemOption {
	return func(s *System) { s.workers = n }
}

// WithStore attaches a persistent artifact store rooted at dir: the
// engine's recording and profile caches gain an on-disk load-through
// tier, so profiles computed by earlier processes (other replicas, a
// previous run, `mppm cache warm`) are loaded instead of recomputed,
// and everything this system computes is persisted for the next one.
// The directory is created on first write; store failures never fail an
// evaluation (see StoreStats). An empty dir disables the store.
func WithStore(dir string) SystemOption {
	return func(s *System) { s.storeDir = dir }
}

// WithPeerFetch installs a fleet peer-fetch hook under the persistent
// store (see WithStore, without which it is a no-op): when a local
// artifact load misses, the store asks f — typically a fleet.Fetcher
// bound to the peer replicas — for the raw encoded bytes, validates
// them exactly like a local file and persists them. A cold replica
// joining a warm fleet thereby warms over the wire instead of re-running
// profiling frontends. kind is "recordings" or "profiles"; key is the
// artifact's content address. f must be safe for concurrent use.
func WithPeerFetch(f func(kind, key string) ([]byte, error)) SystemOption {
	return func(s *System) { s.peerFetch = f }
}

// NewSystem builds a System with the paper's baseline core/private-cache
// parameters and the given default LLC. An invalid WithScale surfaces
// as ErrBadConfig from the first evaluation.
func NewSystem(llc LLCConfig, opts ...SystemOption) *System {
	s := &System{cfg: sim.DefaultConfig(llc)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// NewSystemScaled builds a System with custom trace and profiling
// interval lengths, validating them eagerly. Unlike WithScale, zero
// values are invalid rather than defaults.
func NewSystemScaled(llc LLCConfig, traceLength, intervalLength int64) (*System, error) {
	s := NewSystem(llc)
	s.cfg.TraceLength = traceLength
	s.cfg.IntervalLength = intervalLength
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// LLC returns the system's default LLC configuration (requests override
// it per call with WithConfigs).
func (s *System) LLC() LLCConfig { return s.cfg.Hierarchy.LLC }

// TraceLength returns the per-benchmark trace length in instructions.
func (s *System) TraceLength() int64 { return s.cfg.TraceLength }

// engine returns the system's shared evaluation engine, built on first
// use at the system's trace scale.
func (s *System) engine() *engine.Engine {
	s.engOnce.Do(func() {
		if s.storeDir != "" {
			s.store = store.Open(s.storeDir)
			if s.peerFetch != nil {
				f := s.peerFetch
				s.store.SetPeerFetch(func(kind store.ArtifactKind, key string) ([]byte, error) {
					return f(string(kind), key)
				})
			}
		}
		s.eng = engine.New(engine.Config{
			TraceLength:    s.cfg.TraceLength,
			IntervalLength: s.cfg.IntervalLength,
			Workers:        s.workers,
			Store:          s.store,
		})
	})
	return s.eng
}

// EngineStats reports the evaluation engine's cache-miss counters: how
// many single-core profiles and detailed simulations were actually
// computed (as opposed to served from the singleflight caches or the
// persistent store), how many profiling-frontend recordings (full trace
// passes) backed those profiles, and how many entries the in-memory
// caches currently retain.
type EngineStats struct {
	RecordingComputations  int64
	ProfileComputations    int64
	SimulationComputations int64

	CachedRecordings  int
	CachedProfiles    int
	CachedSimulations int
}

// EngineStats returns the system's evaluation-engine counters.
func (s *System) EngineStats() EngineStats {
	eng := s.engine()
	st := EngineStats{
		RecordingComputations:  eng.RecordingComputations(),
		ProfileComputations:    eng.ProfileComputations(),
		SimulationComputations: eng.SimulationComputations(),
	}
	st.CachedRecordings, st.CachedProfiles, st.CachedSimulations = eng.CacheSizes()
	return st
}

// Ready reports whether the system can serve evaluation traffic: the
// engine is constructed (building it on first call) and, when a
// persistent store is configured, its directory is usable. It is the
// readiness probe behind mppmd's GET /v1/readyz — cheap enough for a
// load balancer to poll.
func (s *System) Ready() error {
	eng := s.engine()
	if st := eng.Store(); st != nil {
		return st.Ready()
	}
	return nil
}

// StoreStats are the persistent artifact store's operation counters
// (hits, misses, rejected artifacts, saves).
type StoreStats = store.Stats

// StoreStats returns the artifact store's counters and its root
// directory; ok is false when the system runs without a store.
func (s *System) StoreStats() (stats StoreStats, dir string, ok bool) {
	s.engine() // ensure the store handle exists
	if s.store == nil {
		return StoreStats{}, "", false
	}
	return s.store.Stats(), s.store.Dir(), true
}

// ArtifactData returns the raw encoded bytes of one persisted artifact
// by kind ("recordings" or "profiles") and content key — the payload of
// the fleet artifact-exchange endpoint, served byte-exact so the codec
// checksum protects the artifact across the wire. It fails when the
// system runs without a store, on a malformed reference
// (store.ErrBadArtifactRef) or when the artifact is absent
// (fs.ErrNotExist).
func (s *System) ArtifactData(kind, key string) ([]byte, error) {
	s.engine()
	if s.store == nil {
		return nil, fmt.Errorf("mppm: no artifact store configured: %w", store.ErrBadArtifactRef)
	}
	return s.store.ReadRaw(store.ArtifactKind(kind), key)
}

// Warm pre-computes the single-core profiles of the whole synthetic
// suite under the given LLC configurations (the system's default LLC
// when none are given), so subsequent Eval traffic finds every profile
// already cached. Each benchmark's profiling frontend runs once and the
// per-config profiles are cheap replays of it, making an N-config warmup
// cost about one full profiling pass — the record-once / replay-per-
// config cold-start path. It returns the number of (benchmark, config)
// profiles now warm.
func (s *System) Warm(ctx context.Context, configs ...LLCConfig) (int, error) {
	if len(configs) == 0 {
		configs = []LLCConfig{s.LLC()}
	}
	// Deduplicate so the returned count matches the distinct
	// (benchmark, config) pairs actually warmed.
	seen := make(map[LLCConfig]bool, len(configs))
	distinct := configs[:0:0]
	for _, c := range configs {
		if !seen[c] {
			seen[c] = true
			distinct = append(distinct, c)
		}
	}
	suite := trace.Suite()
	if _, err := s.engine().ProfileConfigs(ctx, suite, distinct); err != nil {
		return 0, err
	}
	return len(suite) * len(distinct), nil
}

// Profile runs one benchmark in isolation and returns its single-core
// profile (CPI, memory CPI and LLC stack distance counters per
// interval), computed at most once per (benchmark, LLC) on this System.
func (s *System) Profile(b Benchmark) (*Profile, error) {
	return s.engine().Profile(context.Background(), b, s.LLC())
}

// ProfileAll profiles many benchmarks in parallel — the paper's one-time
// cost preceding any number of model evaluations. The profiles land in
// the same engine cache every Eval draws from, so explicit profiling is
// an optimization, never a requirement.
func (s *System) ProfileAll(bs []Benchmark) (*ProfileSet, error) {
	return s.engine().ProfileSpecs(context.Background(), bs, s.LLC())
}

// Measurement reports a detailed multi-core simulation in the same shape
// as a Prediction, so the two are directly comparable.
type Measurement struct {
	Benchmarks []string
	SingleCPI  []float64
	MultiCPI   []float64
	Slowdown   []float64
	STP        float64
	ANTT       float64
}

// ConfidenceReport summarizes MPPM predictions over many mixes with 95%
// confidence bounds — the paper's contribution #3 ("MPPM provides
// confidence bounds on its performance estimates").
type ConfidenceReport struct {
	Mixes int
	STP   stats.ConfidenceInterval
	ANTT  stats.ConfidenceInterval
}

// Confidence computes a 95% confidence report over a slice of
// predictions (at least two).
func Confidence(preds []*Prediction) (*ConfidenceReport, error) {
	return confidence(len(preds), func(i int) (float64, float64) {
		return preds[i].STP, preds[i].ANTT
	})
}

// confidence is the one body behind Confidence and Result.Confidence:
// 95% mean intervals over n observations, at(i) yielding the i-th STP
// and ANTT.
func confidence(n int, at func(i int) (stp, antt float64)) (*ConfidenceReport, error) {
	stp := make([]float64, n)
	antt := make([]float64, n)
	for i := range n {
		stp[i], antt[i] = at(i)
	}
	ciS, err := stats.MeanCI(stp, 0.95)
	if err != nil {
		return nil, err
	}
	ciA, err := stats.MeanCI(antt, 0.95)
	if err != nil {
		return nil, err
	}
	return &ConfidenceReport{Mixes: n, STP: ciS, ANTT: ciA}, nil
}

// RandomMixes draws deterministic random workload mixes over the suite.
func RandomMixes(count, cores int, seed int64) ([]Mix, error) {
	s, err := workload.NewSampler(trace.SuiteNames(), seed)
	if err != nil {
		return nil, err
	}
	return s.RandomMixes(count, cores, true)
}

// NumMixes returns C(N+M-1, M): the number of distinct M-program mixes
// over N benchmarks (the combinatorial explosion of Section 1).
func NumMixes(benchmarks, cores int) (int64, error) {
	return workload.NumMixes(benchmarks, cores)
}

// Class labels a benchmark memory-intensive or compute-intensive, the
// way Section 5's category-structured practice buckets the suite.
type Class = workload.Class

// Classification constants.
const (
	Compute = workload.Compute
	Memory  = workload.Memory
)

// Classify labels every profiled benchmark by memory intensity
// (MemCPI/CPI >= threshold means memory-intensive). Pass
// DefaultMemIntensityThreshold for the standard split.
func Classify(set *ProfileSet, threshold float64) map[string]Class {
	return workload.Classify(set, threshold)
}

// DefaultMemIntensityThreshold is the standard MEM/COMP split point.
const DefaultMemIntensityThreshold = workload.DefaultMemIntensityThreshold

// TraceSource is a replayable memory-reference stream; synthetic
// benchmarks, recorded traces and user implementations all satisfy it.
type TraceSource = trace.Source

// ExportTrace serializes a benchmark's reference stream at the given
// length to w in the repository's binary trace format.
func ExportTrace(w io.Writer, b Benchmark, length int64) error {
	rd, err := trace.NewReader(b, length)
	if err != nil {
		return err
	}
	return trace.WriteTrace(w, rd)
}

// ImportTrace deserializes a trace written by ExportTrace.
func ImportTrace(r io.Reader) (TraceSource, error) {
	return trace.ReadTrace(r)
}

// ProfileSource profiles an arbitrary trace source on this system.
func (s *System) ProfileSource(src TraceSource) (*Profile, error) {
	return s.engine().ProfileSource(context.Background(), src, s.LLC())
}

// SimulateSources runs the detailed multi-core simulator over arbitrary
// trace sources, one per core.
func (s *System) SimulateSources(srcs []TraceSource) (*Measurement, error) {
	ctx := context.Background()
	res, err := s.engine().SimulateSources(ctx, srcs, s.LLC())
	if err != nil {
		return nil, err
	}
	sc := make([]float64, len(srcs))
	for i, src := range srcs {
		p, err := s.engine().ProfileSource(ctx, src, s.LLC())
		if err != nil {
			return nil, err
		}
		sc[i] = p.CPI()
	}
	m := &Measurement{Benchmarks: res.Benchmarks, SingleCPI: sc, MultiCPI: res.CPI}
	if m.Slowdown, err = metrics.Slowdowns(sc, res.CPI); err != nil {
		return nil, err
	}
	if m.STP, err = metrics.STP(sc, res.CPI); err != nil {
		return nil, err
	}
	if m.ANTT, err = metrics.ANTT(sc, res.CPI); err != nil {
		return nil, err
	}
	return m, nil
}
