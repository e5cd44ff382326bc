// Package cpu implements the core timing model of the reproduction's
// trace-driven simulator, playing the role of CMP$im's simple core model.
//
// Timing is additive over a reference stream: non-memory work costs the
// trace-provided base cycles (which encode the 4-wide out-of-order core's
// dispatch-limited CPI plus dependency stalls), and each memory reference
// adds a stall depending on where the hierarchy satisfied it.
//
//   - L1 hits are fully hidden by the out-of-order window.
//   - L2 hits pay a small fixed stall (the part of the L2 latency a
//     128-entry ROB cannot hide).
//   - LLC hits pay the LLC latency minus the hidden portion, so the six
//     Table 2 configurations with different latencies are distinguishable.
//   - LLC misses pay the memory latency on top of the LLC-hit cost,
//     subject to a memory-level-parallelism (MLP) rule: a miss within
//     ROBWindow instructions of the previous miss overlaps with it and
//     pays only OverlapFactor of the memory latency. This mirrors how an
//     out-of-order core with multiple MSHRs streams through dense miss
//     bursts while isolated misses pay the full round trip.
//
// The model also maintains the paper's "memory CPI" counter (Eyerman et
// al.'s counter architecture): the cycles attributable to LLC misses
// beyond what the same accesses would cost as LLC hits. By construction
// this equals CPI(real LLC) − CPI(perfect LLC), the paper's alternative
// two-run measurement, which TestMemCPIMethodsAgree verifies.
package cpu

import (
	"fmt"

	"repro/internal/cache"
)

// Params configures the timing model. DefaultParams matches the paper's
// Table 1 core (4-wide, 128-entry ROB, 200-cycle memory).
type Params struct {
	ROBWindow     int64   // instruction distance within which LLC misses overlap
	HiddenLatency float64 // cycles of load latency the OoO window hides
	L2HitStall    float64 // residual stall for an L1-miss/L2-hit
	MemLatency    float64 // main memory latency in cycles
	OverlapFactor float64 // fraction of MemLatency an overlapped miss pays
}

// DefaultParams returns the baseline core model parameters.
func DefaultParams() Params {
	return Params{
		ROBWindow:     128,
		HiddenLatency: 8,
		L2HitStall:    4,
		MemLatency:    200,
		OverlapFactor: 0.15,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.ROBWindow < 0 {
		return fmt.Errorf("cpu: negative ROB window")
	}
	if p.MemLatency <= 0 {
		return fmt.Errorf("cpu: non-positive memory latency")
	}
	if p.OverlapFactor < 0 || p.OverlapFactor > 1 {
		return fmt.Errorf("cpu: overlap factor %v outside [0,1]", p.OverlapFactor)
	}
	if p.HiddenLatency < 0 || p.L2HitStall < 0 {
		return fmt.Errorf("cpu: negative stall parameter")
	}
	return nil
}

// LLCHitStall returns the stall cycles of an LLC hit for a cache with the
// given access latency.
func (p Params) LLCHitStall(llcLatency int) float64 {
	s := float64(llcLatency) - p.HiddenLatency
	if s < 0 {
		s = 0
	}
	return s
}

// MissStall returns the stall of an LLC miss beyond the LLC-hit cost,
// given whether it overlaps a recent previous miss. This quantity is what
// the memory-CPI counter accumulates.
func (p Params) MissStall(overlapped bool) float64 {
	if overlapped {
		return p.MemLatency * p.OverlapFactor
	}
	return p.MemLatency
}

// Timing accumulates cycles for one core executing one trace.
//
// Cycles are kept in two accumulators: baseCycles holds everything the
// LLC configuration cannot influence (instruction gap cycles plus L1/L2
// stalls), llcCycles holds LLC hit/miss stalls and memory-bandwidth
// queueing. Total cycles are their sum. The split is what makes the
// record/replay profiling pipeline bit-exact: a frontend recording pass
// can snapshot baseCycles at every LLC access, and a per-config replay
// restores those exact values with AdvanceTo while re-accumulating only
// the LLC-dependent part — the same additions in the same order as a
// direct run.
type Timing struct {
	params Params

	baseCycles    float64 // gap cycles + private-level stalls (LLC-independent)
	llcCycles     float64 // LLC hit/miss stalls + bandwidth queueing
	instructions  int64
	memStall      float64 // cycles charged to LLC misses (memory CPI numerator)
	lastMissInstr int64   // instruction index of the previous LLC miss

	// FrequencyScale divides all accumulated cycles when reading CPI,
	// modelling a heterogeneous core running at a multiple of the
	// baseline frequency (an extension from the paper's future work).
	frequencyScale float64
}

// NewTiming builds a timing accumulator. It panics on invalid parameters;
// parameters are validated once at construction.
func NewTiming(p Params) *Timing {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Timing{params: p, lastMissInstr: -1 << 62, frequencyScale: 1}
}

// SetFrequencyScale sets the heterogeneous-core frequency multiplier
// (>1 means a faster core: fewer effective cycles per instruction).
// It panics on non-positive scales.
func (t *Timing) SetFrequencyScale(s float64) {
	if s <= 0 {
		panic(fmt.Sprintf("cpu: non-positive frequency scale %v", s))
	}
	t.frequencyScale = s
}

// Params returns the model parameters.
func (t *Timing) Params() Params { return t.params }

// OnGap accounts for gap instructions of non-memory work costing
// gapCycles base cycles.
func (t *Timing) OnGap(gap int64, gapCycles float64) {
	t.instructions += gap
	t.baseCycles += t.scale(gapCycles)
}

// scale converts baseline cycles into this core's cycles. At the
// baseline frequency it skips the division, which is exact: x/1 == x
// for every float64.
func (t *Timing) scale(cycles float64) float64 {
	if t.frequencyScale == 1 {
		return cycles
	}
	return cycles / t.frequencyScale
}

// OnAccess accounts for one memory reference satisfied at the given
// hierarchy level. llcLatency is the configured LLC access latency in
// cycles (only used for LLCHit and LLCMiss). A dependent LLC miss (data-
// dependent chain, see trace.Region.Dependent) never overlaps earlier
// misses and always pays the full memory latency. It returns the stall
// charged.
func (t *Timing) OnAccess(level cache.Level, llcLatency int, dependent bool) float64 {
	if level == cache.L1Hit {
		// Fully hidden. Checked here so the commonest access inlines
		// into the simulator loops without a call.
		return 0
	}
	return t.onStall(level, llcLatency, dependent)
}

// onStall is OnAccess for the levels below L1.
func (t *Timing) onStall(level cache.Level, llcLatency int, dependent bool) float64 {
	var stall float64
	switch level {
	case cache.L2Hit:
		stall = t.scale(t.params.L2HitStall)
		t.baseCycles += stall
		return stall
	case cache.LLCHit:
		stall = t.params.LLCHitStall(llcLatency)
	case cache.LLCMiss:
		hitPart := t.params.LLCHitStall(llcLatency)
		overlapped := !dependent && t.instructions-t.lastMissInstr <= t.params.ROBWindow
		missPart := t.params.MissStall(overlapped)
		t.lastMissInstr = t.instructions
		t.memStall += t.scale(missPart)
		stall = hitPart + missPart
	default:
		panic(fmt.Sprintf("cpu: unknown level %v", level))
	}
	stall = t.scale(stall)
	t.llcCycles += stall
	return stall
}

// AddMemStall charges extra memory stall cycles outside OnAccess — the
// hook the simulator uses for memory-bandwidth queueing delay, which is
// part of the memory CPI component by construction.
func (t *Timing) AddMemStall(cycles float64) {
	if cycles <= 0 {
		return
	}
	cycles = t.scale(cycles)
	t.llcCycles += cycles
	t.memStall += cycles
}

// Cycles returns the total accumulated cycles.
func (t *Timing) Cycles() float64 { return t.baseCycles + t.llcCycles }

// BaseCycles returns the LLC-independent cycle accumulator: instruction
// gap cycles plus private-level (L1/L2) stalls. A profiling frontend
// records these totals so a per-config replay can restore them exactly
// with AdvanceTo.
func (t *Timing) BaseCycles() float64 { return t.baseCycles }

// AdvanceTo jumps the instruction counter and the base-cycle accumulator
// to absolute values previously observed (via Instructions/BaseCycles) on
// an identically parameterized Timing. The LLC-dependent accumulators are
// untouched, so a replay that interleaves AdvanceTo with the same
// OnAccess/AddMemStall calls as a direct run reproduces its counters
// bit-exactly. The values are restored as they are, not rescaled, so the
// result is exact whenever they were observed on a Timing at the same
// frequency scale as t.
func (t *Timing) AdvanceTo(instructions int64, baseCycles float64) {
	t.instructions = instructions
	t.baseCycles = baseCycles
}

// Instructions returns the total instructions accounted.
func (t *Timing) Instructions() int64 { return t.instructions }

// MemStallCycles returns the cycles attributed to LLC misses (the memory
// CPI numerator).
func (t *Timing) MemStallCycles() float64 { return t.memStall }

// CPI returns cycles per instruction so far; 0 before any instruction.
func (t *Timing) CPI() float64 {
	if t.instructions == 0 {
		return 0
	}
	return t.Cycles() / float64(t.instructions)
}

// MemCPI returns the memory CPI component so far.
func (t *Timing) MemCPI() float64 {
	if t.instructions == 0 {
		return 0
	}
	return t.memStall / float64(t.instructions)
}

// Snapshot captures the counters at a point in time, for interval
// profiling (subtract two snapshots to get an interval's deltas).
type Snapshot struct {
	Cycles       float64
	Instructions int64
	MemStall     float64
}

// Snapshot returns the current counters.
func (t *Timing) Snapshot() Snapshot {
	return Snapshot{Cycles: t.Cycles(), Instructions: t.instructions, MemStall: t.memStall}
}

// Reset clears all counters (parameters and frequency scale are kept).
func (t *Timing) Reset() {
	t.baseCycles = 0
	t.llcCycles = 0
	t.instructions = 0
	t.memStall = 0
	t.lastMissInstr = -1 << 62
}
