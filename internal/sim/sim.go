// Package sim implements the reproduction's trace-driven simulator — the
// stand-in for CMP$im in the paper's experimental setup. It provides:
//
//   - single-core simulation with per-interval profiling (Section 2.1),
//     producing the profiles MPPM consumes, including a perfect-LLC mode
//     for the paper's alternative memory-CPI measurement;
//   - detailed multi-core simulation of multi-program workloads sharing
//     the LLC (the paper's "measured" reference). Each core runs its own
//     trace through private L1/L2 caches; accesses that miss L2 are
//     interleaved into the shared LLC in exact global cycle order, which
//     is the mechanism that creates inter-program conflict misses.
//
// Multi-core measurement follows the FAME/Tuck-Tullsen methodology the
// paper cites: every program runs until it completes its trace at least
// once, restarting when it finishes early so that contention persists;
// each program's multi-core CPI is taken over its first full pass.
//
// One event loop drives every multi-core simulation; a per-core frontend
// supplies each core's LLC accesses. RunMulticore and
// RunMulticoreSources use the live frontend, which runs the trace
// through the private caches as the simulation goes, and alone supports
// per-core frequency scaling. RunMulticoreTapes reads each core's
// accesses from a Tape instead: the LLC-independent work recorded once,
// across as many trace passes as simulations have needed, and reused by
// every later simulation of that benchmark. Both frontends produce
// bit-identical results (TestTapeMatchesLive).
package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/engine/pool"
	"repro/internal/mppmerr"
	"repro/internal/profile"
	"repro/internal/sdc"
	"repro/internal/trace"
)

// coreAddrShift positions the core ID in the upper address bits so that
// the address spaces of co-running programs never alias in shared caches.
const coreAddrShift = trace.AddrBits

// Config carries everything needed to run a simulation.
type Config struct {
	Hierarchy      cache.HierarchyConfig
	CPU            cpu.Params
	TraceLength    int64
	IntervalLength int64

	// MemBandwidthOccupancy optionally models a shared memory channel:
	// every LLC miss occupies the channel for this many cycles (cycles
	// per line transfer), and misses queue when the channel is busy.
	// Zero (the default) disables bandwidth modelling — the paper models
	// cache sharing only and lists bandwidth as future work.
	MemBandwidthOccupancy float64
}

// DefaultConfig returns the baseline Table 1 configuration with the given
// Table 2 LLC at the reproduction's default scale.
func DefaultConfig(llc cache.Config) Config {
	return Config{
		Hierarchy:      cache.BaselineHierarchy(llc),
		CPU:            cpu.DefaultParams(),
		TraceLength:    trace.DefaultTraceLength,
		IntervalLength: profile.DefaultIntervalLength,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Hierarchy.Validate(); err != nil {
		return err
	}
	if err := c.CPU.Validate(); err != nil {
		return err
	}
	if c.TraceLength < 1 {
		return fmt.Errorf("sim: non-positive trace length: %w", mppmerr.ErrBadConfig)
	}
	if c.IntervalLength < 1 || c.IntervalLength > c.TraceLength {
		return fmt.Errorf("sim: interval length %d outside [1, trace length]: %w",
			c.IntervalLength, mppmerr.ErrBadConfig)
	}
	if c.MemBandwidthOccupancy < 0 {
		return fmt.Errorf("sim: negative memory bandwidth occupancy: %w", mppmerr.ErrBadConfig)
	}
	return nil
}

// ProfileOptions tweaks single-core profiling runs.
type ProfileOptions struct {
	// PerfectLLC makes every LLC access hit, implementing the paper's
	// two-run alternative for measuring memory CPI: CPI(real) minus
	// CPI(perfect) equals the memory CPI component.
	PerfectLLC bool
}

// ctxCheckInterval is how often (in instructions) the simulator inner
// loops poll for context cancellation. Checking every reference would
// put an atomic load in the hot path; every ~64K instructions keeps the
// abort latency of a 10M-instruction run in the microseconds while
// costing one check per a few thousand references.
const ctxCheckInterval = 64 * 1024

// Profile runs spec alone on the configured hierarchy and returns its
// single-core profile (CPI, memory CPI and LLC stack distance counters
// per interval). It honors ctx cancellation mid-trace.
func Profile(ctx context.Context, spec trace.Spec, cfg Config) (*profile.Profile, error) {
	return ProfileWithOptions(ctx, spec, cfg, ProfileOptions{})
}

// ProfileWithOptions is Profile with explicit options.
func ProfileWithOptions(ctx context.Context, spec trace.Spec, cfg Config, opts ProfileOptions) (*profile.Profile, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rd, err := trace.NewReader(spec, cfg.TraceLength)
	if err != nil {
		return nil, err
	}
	return ProfileSource(ctx, rd, cfg, opts)
}

// ProfileSource profiles an arbitrary trace source (synthetic reader,
// recorded trace, or user-provided). The source's instruction count
// overrides cfg.TraceLength. Addresses must stay below 1<<trace.AddrBits.
//
// ProfileSource is the direct single-pass path and the differential
// oracle for the record/replay pipeline: Record + Recording.Replay must
// produce bit-identical profiles (TestReplayMatchesProfileSource).
func ProfileSource(ctx context.Context, rd trace.Source, cfg Config, opts ProfileOptions) (*profile.Profile, error) {
	cfg.TraceLength = rd.Instructions()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rd.Reset()
	cur := trace.NewCursor(rd)
	priv := cache.NewPrivate(cfg.Hierarchy)
	llc := cache.New(cfg.Hierarchy.LLC)
	tm := cpu.NewTiming(cfg.CPU)
	ways := cfg.Hierarchy.LLC.Ways
	llcLat := cfg.Hierarchy.LLC.LatencyCycles

	p := &profile.Profile{
		Meta: profile.Meta{
			Benchmark:      rd.Name(),
			TraceLength:    cfg.TraceLength,
			IntervalLength: cfg.IntervalLength,
			LLC:            cfg.Hierarchy.LLC,
			CPU:            cfg.CPU,
		},
	}

	ivSDC := sdc.New(ways)
	ivAccesses := 0.0
	last := tm.Snapshot()
	nextBoundary := cfg.IntervalLength
	nextCtxCheck := int64(ctxCheckInterval)
	busFreeAt := 0.0

	closeInterval := func() {
		now := tm.Snapshot()
		p.Intervals = append(p.Intervals, profile.Interval{
			Instructions: now.Instructions - last.Instructions,
			Cycles:       now.Cycles - last.Cycles,
			MemStall:     now.MemStall - last.MemStall,
			LLCAccesses:  ivAccesses,
			SDC:          ivSDC.Clone(),
		})
		ivSDC.Reset()
		ivAccesses = 0
		last = now
		nextBoundary += cfg.IntervalLength
	}

	for {
		ref := cur.Next()
		if ref == nil {
			break
		}
		tm.OnGap(ref.Gap, ref.GapCycles)
		if tm.Instructions() >= nextCtxCheck {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			nextCtxCheck = tm.Instructions() + ctxCheckInterval
		}
		level := priv.Access(ref.Addr, ref.Write)
		if level == 0 {
			hit, depth, _ := llc.Access(ref.Addr, ref.Write)
			ivAccesses++
			if hit {
				ivSDC.Record(depth)
				tm.OnAccess(cache.LLCHit, llcLat, ref.Dependent)
			} else {
				ivSDC.Record(0)
				if opts.PerfectLLC {
					tm.OnAccess(cache.LLCHit, llcLat, ref.Dependent)
				} else {
					tm.OnAccess(cache.LLCMiss, llcLat, ref.Dependent)
					if occ := cfg.MemBandwidthOccupancy; occ > 0 {
						now := tm.Cycles()
						if busFreeAt > now {
							tm.AddMemStall(busFreeAt - now)
						}
						busFreeAt = math.Max(busFreeAt, now) + occ
					}
				}
			}
		} else {
			tm.OnAccess(level, llcLat, ref.Dependent)
		}
		if tm.Instructions() >= nextBoundary {
			closeInterval()
		}
	}
	if tm.Instructions() > last.Instructions {
		closeInterval()
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: produced invalid profile: %w", err)
	}
	return p, nil
}

// ProfileSuite profiles every spec in parallel (bounded by GOMAXPROCS)
// and returns the profiles keyed by benchmark name. Cancelling ctx
// aborts in-flight profiling runs, not just queued ones.
func ProfileSuite(ctx context.Context, specs []trace.Spec, cfg Config) (*profile.Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	profiles := make([]*profile.Profile, len(specs))
	err := pool.Map(ctx, len(specs), 0, func(ctx context.Context, i int) error {
		p, err := Profile(ctx, specs[i], cfg)
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

// MulticoreResult reports a detailed multi-core simulation of one
// multi-program workload.
type MulticoreResult struct {
	Benchmarks []string // per-slot benchmark names

	// Per-program measurements over each program's first full trace pass.
	CPI          []float64
	Cycles       []float64
	Instructions []int64

	// Per-core LLC behaviour over the whole run (including restarts).
	LLCAccesses []int64
	LLCMisses   []int64

	// Shared-LLC aggregate statistics.
	LLCStats cache.Stats

	// TotalCycles is the global cycle count at which the last program
	// finished its first pass.
	TotalCycles float64
}

// llcEvent is a pending shared-LLC access from one core.
type llcEvent struct {
	time      float64
	core      int
	addr      uint64
	write     bool
	dependent bool
}

// before reports whether a is served before b: in cycle order, with
// ties going to the lower core, so the order is total and deterministic.
func (a llcEvent) before(b llcEvent) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	return a.core < b.core
}

// frontend supplies one core's shared-LLC accesses: everything below
// the LLC, which no other core and no LLC configuration can influence.
type frontend interface {
	// next advances c to its next LLC access and returns it, timed at
	// c's cycle count when the access issues. On reaching the end of
	// c's first trace pass it calls c.finish, and it restarts the trace
	// when a pass ends. If a whole further pass has no LLC access, the
	// core can no longer interact with the others: next reports
	// ok=false and the core goes dormant.
	next(ctx context.Context, c *coreState) (ev llcEvent, ok bool, err error)
}

// coreState is one program on one core.
type coreState struct {
	id int
	tm *cpu.Timing
	fe frontend

	finished     bool
	finishCycles float64
	finishInstrs int64

	llcAccesses int64
	llcMisses   int64
}

// finish records the core's first-pass statistics once.
func (c *coreState) finish() {
	if !c.finished {
		c.finished = true
		c.finishCycles = c.tm.Cycles()
		c.finishInstrs = c.tm.Instructions()
	}
}

// event builds the core's LLC access to addr at its current cycle
// count, with the core ID tagged into the address.
func (c *coreState) event(addr uint64, write, dependent bool) llcEvent {
	return llcEvent{
		time:      c.tm.Cycles(),
		core:      c.id,
		addr:      addr | (uint64(c.id+1) << coreAddrShift),
		write:     write,
		dependent: dependent,
	}
}

// liveFrontend runs the core's trace through its private caches as the
// simulation goes. It polls ctx every ~64K instructions so cancellation
// aborts even a core that is streaming through a long LLC-quiet stretch.
type liveFrontend struct {
	cur  *trace.Cursor
	priv *cache.Private

	nextCtxCheck int64 // instruction count of the next cancellation poll
}

// next implements frontend.
func (f *liveFrontend) next(ctx context.Context, c *coreState) (llcEvent, bool, error) {
	resets := 0
	for {
		ref := f.cur.Next()
		if ref == nil {
			c.finish()
			resets++
			if resets >= 2 {
				return llcEvent{}, false, nil
			}
			f.cur.Reset()
			continue
		}
		c.tm.OnGap(ref.Gap, ref.GapCycles)
		if c.tm.Instructions() >= f.nextCtxCheck {
			if err := ctx.Err(); err != nil {
				return llcEvent{}, false, err
			}
			f.nextCtxCheck = c.tm.Instructions() + ctxCheckInterval
		}
		level := f.priv.Access(ref.Addr, ref.Write)
		if level == 0 {
			return c.event(ref.Addr, ref.Write, ref.Dependent), true, nil
		}
		c.tm.OnAccess(level, 0, ref.Dependent)
	}
}

// RunMulticore simulates the multi-program workload given by specs (one
// program per core; repeated specs are independent copies with disjoint
// address spaces). freqScale optionally gives per-core frequency
// multipliers for the heterogeneous-multi-core extension; nil means all
// cores run at baseline frequency. Every core runs its trace live;
// RunMulticoreTapes gives the same result from recorded streams.
func RunMulticore(ctx context.Context, specs []trace.Spec, cfg Config, freqScale []float64) (*MulticoreResult, error) {
	for _, s := range specs {
		if s.Footprint() >= 1<<coreAddrShift {
			return nil, fmt.Errorf("sim: %s footprint too large for address tagging", s.Name)
		}
	}
	srcs := make([]trace.Source, len(specs))
	for i, s := range specs {
		rd, err := trace.NewReader(s, cfg.TraceLength)
		if err != nil {
			return nil, err
		}
		srcs[i] = rd
	}
	return RunMulticoreSources(ctx, srcs, cfg, freqScale)
}

// RunMulticoreSources is RunMulticore over arbitrary trace sources (one
// per core). Sources may have differing instruction counts; each
// program's CPI is measured over its own first full pass. Addresses must
// stay below 1<<trace.AddrBits. Cancelling ctx aborts the simulation
// mid-run.
func RunMulticoreSources(ctx context.Context, srcs []trace.Source, cfg Config, freqScale []float64) (*MulticoreResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := len(srcs)
	if n == 0 {
		return nil, fmt.Errorf("sim: empty workload")
	}
	if freqScale != nil && len(freqScale) != n {
		return nil, fmt.Errorf("sim: freqScale has %d entries for %d cores", len(freqScale), n)
	}
	cores := make([]*coreState, n)
	names := make([]string, n)
	for i, src := range srcs {
		src.Reset()
		tm := cpu.NewTiming(cfg.CPU)
		if freqScale != nil {
			tm.SetFrequencyScale(freqScale[i])
		}
		cores[i] = &coreState{
			id: i,
			tm: tm,
			fe: &liveFrontend{
				cur:          trace.NewCursor(src),
				priv:         cache.NewPrivate(cfg.Hierarchy),
				nextCtxCheck: ctxCheckInterval,
			},
		}
		names[i] = src.Name()
	}
	return simulate(ctx, cores, names, cfg)
}

// simulate is the event loop shared by every frontend: it interleaves
// the cores' LLC accesses into the shared LLC in global cycle order
// until every program has completed its first pass.
func simulate(ctx context.Context, cores []*coreState, names []string, cfg Config) (*MulticoreResult, error) {
	n := len(cores)
	llc := cache.New(cfg.Hierarchy.LLC)
	llcLat := cfg.Hierarchy.LLC.LatencyCycles
	unfinished := n
	busFreeAt := 0.0
	// At most one pending event per core, so a linear scan for the
	// earliest beats a heap at any realistic core count.
	pending := make([]llcEvent, 0, n)
	advance := func(c *coreState) error {
		wasFinished := c.finished
		ev, ok, err := c.fe.next(ctx, c)
		if err != nil {
			return err
		}
		if ok {
			pending = append(pending, ev)
		}
		if c.finished && !wasFinished {
			unfinished--
		}
		return nil
	}
	for _, c := range cores {
		if err := advance(c); err != nil {
			return nil, err
		}
	}

	for unfinished > 0 && len(pending) > 0 {
		k := 0
		for j := 1; j < len(pending); j++ {
			if pending[j].before(pending[k]) {
				k = j
			}
		}
		ev := pending[k]
		last := len(pending) - 1
		pending[k] = pending[last]
		pending = pending[:last]

		c := cores[ev.core]
		hit, _, _ := llc.Access(ev.addr, ev.write)
		c.llcAccesses++
		if hit {
			c.tm.OnAccess(cache.LLCHit, llcLat, ev.dependent)
		} else {
			c.llcMisses++
			c.tm.OnAccess(cache.LLCMiss, llcLat, ev.dependent)
			if occ := cfg.MemBandwidthOccupancy; occ > 0 {
				// The shared channel serves misses in arrival order; a
				// miss issued at ev.time waits for the channel to drain.
				if busFreeAt > ev.time {
					c.tm.AddMemStall(busFreeAt - ev.time)
				}
				busFreeAt = math.Max(busFreeAt, ev.time) + occ
			}
		}
		if err := advance(c); err != nil {
			return nil, err
		}
	}
	if unfinished > 0 {
		return nil, fmt.Errorf("sim: simulation stalled with %d unfinished programs", unfinished)
	}

	res := &MulticoreResult{
		Benchmarks:   names,
		CPI:          make([]float64, n),
		Cycles:       make([]float64, n),
		Instructions: make([]int64, n),
		LLCAccesses:  make([]int64, n),
		LLCMisses:    make([]int64, n),
		LLCStats:     llc.Stats(),
	}
	for i, c := range cores {
		res.Cycles[i] = c.finishCycles
		res.Instructions[i] = c.finishInstrs
		res.CPI[i] = c.finishCycles / float64(c.finishInstrs)
		res.LLCAccesses[i] = c.llcAccesses
		res.LLCMisses[i] = c.llcMisses
		if c.finishCycles > res.TotalCycles {
			res.TotalCycles = c.finishCycles
		}
	}
	return res, nil
}
