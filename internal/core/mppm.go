// Package core implements the paper's primary contribution: the
// Multi-Program Performance Model (MPPM), an iterative analytical model
// that estimates multi-program multi-core performance from single-core
// profiles (Section 2.2, Figure 2).
//
// The model captures the entanglement between per-program progress and
// shared-cache contention: assuming some per-program slowdowns R_p, it
// advances every program through its profile, accumulates the stack
// distance counters each program presents to the shared LLC over the
// common time window, asks a cache contention model how many extra
// conflict misses sharing induces, converts those misses to lost cycles
// using each program's measured average miss penalty, and updates the
// slowdowns with an exponential moving average. The loop repeats until
// the slowest program has executed TargetMultiple trace lengths.
package core

import (
	"fmt"
	"math"

	"repro/internal/contention"
	"repro/internal/mppmerr"
	"repro/internal/profile"
)

// Options configures a model run. The zero value selects the paper's
// parameters (scaled): chunk L of one fifth of the trace, stop after the
// slowest program has run five trace lengths, FOA contention model.
type Options struct {
	// ChunkL is the instruction chunk L the slowest program advances per
	// iteration (paper: 200M of a 1B trace). 0 means traceLength/5.
	ChunkL int64
	// TargetMultiple stops the iteration once the slowest program has
	// executed this many trace lengths (paper: 5). 0 means 5.
	TargetMultiple float64
	// Smoothing is the EMA factor f in R_p = f*R_p + (1-f)*R_new.
	// 0 means the default 0.5. Must lie in [0, 1).
	Smoothing float64
	// Contention selects the cache contention model; nil means FOA.
	Contention contention.Model
	// MaxIterations is a safety bound; 0 means 10000.
	MaxIterations int
	// FrequencyScale optionally gives per-program core frequency
	// multipliers for the heterogeneous-multi-core extension; nil means
	// homogeneous cores. Entries must be positive.
	FrequencyScale []float64
	// ReportAverage reports each program's slowdown as the progress-
	// weighted average of R_p over the run instead of the final EMA
	// value (an ablation of the paper's "report CPI_SC x R_p").
	ReportAverage bool
	// PaperDenominator uses the literal Figure 2 update
	// R_new = 1 + miss_cycles/C, where C is the shared multi-core window
	// length in cycles. Because C already contains R_p for the slowest
	// program, that update converges to the sub-linear fixed point
	// R = 1 + k/R. The default (false) charges the lost cycles against
	// the program's own isolated time over the same instruction window,
	// R_new = 1 + miss_cycles/(CPI_SC,p * N_p), which is the accounting
	// the surrounding text describes ("slowdown compared to single-core
	// execution") and is more accurate on heavy-contention mixes; the
	// ablation benchmarks compare both.
	PaperDenominator bool
	// RecordHistory retains R_p after every iteration in Result.History.
	RecordHistory bool
	// BandwidthOccupancy enables the memory-bandwidth extension (one of
	// the paper's future-work items): a shared memory channel that each
	// LLC miss occupies for this many cycles. The model adds an M/D/1
	// queueing delay to every miss based on the mix's aggregate miss
	// rate, minus the queueing already present in isolated execution.
	// It must match the simulator's Config.MemBandwidthOccupancy for
	// apples-to-apples validation. Zero disables the extension.
	BandwidthOccupancy float64
}

func (o Options) withDefaults(traceLen int64) Options {
	if o.ChunkL == 0 {
		o.ChunkL = traceLen / 5
		if o.ChunkL < 1 {
			o.ChunkL = 1
		}
	}
	if o.TargetMultiple == 0 {
		o.TargetMultiple = 5
	}
	if o.Smoothing == 0 {
		o.Smoothing = 0.5
	}
	if o.Contention == nil {
		o.Contention = contention.FOA{}
	}
	if o.MaxIterations == 0 {
		o.MaxIterations = 10000
	}
	return o
}

// Result reports one MPPM evaluation of a multi-program workload.
type Result struct {
	Benchmarks []string  // per-slot benchmark names
	Slowdown   []float64 // converged R_p
	SingleCPI  []float64 // CPI_SC,p (frequency-scaled when heterogeneous)
	MultiCPI   []float64 // predicted CPI_MC,p = CPI_SC,p * R_p
	STP        float64   // predicted system throughput
	ANTT       float64   // predicted average normalized turnaround time
	Iterations int
	History    [][]float64 // per-iteration R_p when RecordHistory is set
}

// Model evaluates MPPM for one multi-program workload.
type Model struct {
	profiles []*profile.Profile
	opts     Options
	ways     int
	memLat   float64
}

// New builds a model over the given per-slot profiles (repeat a profile
// to co-run copies of the same benchmark). All profiles must have been
// collected on identical LLC and core configurations.
func New(profiles []*profile.Profile, opts Options) (*Model, error) {
	m, err := newModel(profiles, opts)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// newModel is New by value, so Kernel.Run keeps the Model on its stack.
func newModel(profiles []*profile.Profile, opts Options) (Model, error) {
	if len(profiles) == 0 {
		return Model{}, fmt.Errorf("core: no profiles: %w", mppmerr.ErrNoProfiles)
	}
	for i, p := range profiles {
		if p == nil {
			return Model{}, fmt.Errorf("core: profile %d is nil", i)
		}
		if err := p.Validate(); err != nil {
			return Model{}, fmt.Errorf("core: profile %d: %w", i, err)
		}
	}
	ref := profiles[0].Meta
	for i, p := range profiles {
		if p.Meta.LLC != ref.LLC {
			return Model{}, fmt.Errorf("core: profile %d LLC config %+v differs from %+v",
				i, p.Meta.LLC, ref.LLC)
		}
		if p.Meta.CPU != ref.CPU {
			return Model{}, fmt.Errorf("core: profile %d CPU params differ", i)
		}
	}
	opts = opts.withDefaults(ref.TraceLength)
	if opts.Smoothing < 0 || opts.Smoothing >= 1 {
		return Model{}, fmt.Errorf("core: smoothing %v outside [0,1)", opts.Smoothing)
	}
	if opts.BandwidthOccupancy < 0 {
		return Model{}, fmt.Errorf("core: negative bandwidth occupancy")
	}
	if opts.FrequencyScale != nil {
		if len(opts.FrequencyScale) != len(profiles) {
			return Model{}, fmt.Errorf("core: %d frequency scales for %d programs",
				len(opts.FrequencyScale), len(profiles))
		}
		for i, s := range opts.FrequencyScale {
			if !(s > 0) || math.IsInf(s, 1) {
				return Model{}, fmt.Errorf("core: frequency scale %v for program %d is not positive and finite", s, i)
			}
		}
	}
	return Model{
		profiles: profiles,
		opts:     opts,
		ways:     ref.LLC.Ways,
		memLat:   ref.CPU.MemLatency,
	}, nil
}

// scale returns program p's frequency multiplier (1 when homogeneous).
func (m *Model) scale(p int) float64 {
	if m.opts.FrequencyScale == nil {
		return 1
	}
	return m.opts.FrequencyScale[p]
}

// unscale returns x / scale(p), skipping the division on homogeneous
// cores, where x/1 is exactly x.
func (m *Model) unscale(p int, x float64) float64 {
	if fs := m.opts.FrequencyScale; fs != nil {
		return x / fs[p]
	}
	return x
}

// Run executes the iterative model (Figure 2) and returns the predicted
// per-program slowdowns and multi-core CPIs. It runs on a throwaway
// Kernel; batch callers that evaluate many workloads should hold (or
// pool) a Kernel and call Kernel.Run to reuse scratch across runs.
func (m *Model) Run() (*Result, error) {
	var k Kernel
	return k.run(m)
}

// queueWait returns the mean M/D/1 waiting time for utilization rho and
// deterministic service time s, with utilization clamped below 1 (a
// saturated channel's delay is unbounded; the clamp keeps the iteration
// stable while still signalling heavy contention).
func queueWait(rho, s float64) float64 {
	if rho <= 0 {
		return 0
	}
	const maxRho = 0.95
	if rho > maxRho {
		rho = maxRho
	}
	return rho * s / (2 * (1 - rho))
}

// Predict is a convenience wrapper: build the per-slot profile list from
// a profile set and mix names, run the model, and return the result.
func Predict(set *profile.Set, mix []string, opts Options) (*Result, error) {
	if len(mix) == 0 {
		return nil, fmt.Errorf("core: %w", mppmerr.ErrEmptyMix)
	}
	profs := make([]*profile.Profile, len(mix))
	for i, name := range mix {
		p, err := set.Get(name)
		if err != nil {
			return nil, err
		}
		profs[i] = p
	}
	m, err := New(profs, opts)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// MaxSlowdown returns the largest per-program slowdown in the result and
// the corresponding benchmark name — the Section 6 stress diagnostic.
// An empty result reports ("", 0) rather than -Inf, so CLI and stress
// output never prints a sentinel.
func (r *Result) MaxSlowdown() (string, float64) {
	if len(r.Slowdown) == 0 {
		return "", 0
	}
	best, name := math.Inf(-1), ""
	for p, s := range r.Slowdown {
		if s > best {
			best, name = s, r.Benchmarks[p]
		}
	}
	return name, best
}
