// Package profile defines the single-core simulation profiles that feed
// the Multi-Program Performance Model, mirroring Section 2.1 of the paper.
//
// A profile is a sequence of fixed-size instruction intervals (the paper
// uses 20M instructions out of a 1B trace, i.e. 50 intervals; the
// reproduction uses 200K out of 10M — also 50). Each interval records the
// three characteristics the paper lists — single-core CPI, memory CPI and
// the LLC stack distance counters — plus the LLC access count the FOA
// contention model needs.
//
// The package also implements the two profile manipulations the model
// layer relies on:
//
//   - circular window accumulation with fractional proration (the model
//     advances each program by a fractional number of instructions and
//     wraps around the trace, per Figure 2);
//   - derived profiles for reduced LLC associativity and different access
//     latency, which the paper highlights as a way to cover more design
//     points from one set of single-core runs.
package profile

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/mppmerr"
	"repro/internal/sdc"
)

// DefaultIntervalLength is the profiling interval in instructions at the
// reproduction's 1/100 scale (paper: 20M).
const DefaultIntervalLength = 200_000

// Meta describes how a profile was collected.
type Meta struct {
	Benchmark      string       `json:"benchmark"`
	TraceLength    int64        `json:"trace_length"`
	IntervalLength int64        `json:"interval_length"`
	LLC            cache.Config `json:"llc"`
	CPU            cpu.Params   `json:"cpu"`
	Derived        bool         `json:"derived,omitempty"` // true for associativity-derived profiles
}

// Interval holds the measured characteristics of one profiling interval.
type Interval struct {
	Instructions int64        `json:"instructions"`
	Cycles       float64      `json:"cycles"`
	MemStall     float64      `json:"mem_stall"`
	LLCAccesses  float64      `json:"llc_accesses"`
	SDC          sdc.Counters `json:"sdc"`
}

// LLCMisses returns the interval's LLC miss count (the SDC's C>A counter).
func (iv Interval) LLCMisses() float64 { return iv.SDC.Misses() }

// CPI returns the interval's cycles per instruction.
func (iv Interval) CPI() float64 {
	if iv.Instructions == 0 {
		return 0
	}
	return iv.Cycles / float64(iv.Instructions)
}

// MemCPI returns the interval's memory CPI component.
func (iv Interval) MemCPI() float64 {
	if iv.Instructions == 0 {
		return 0
	}
	return iv.MemStall / float64(iv.Instructions)
}

// Profile is a complete single-core profile for one benchmark.
//
// Profiles are treated as immutable once handed to the model layer: the
// first window lookup or CPI call builds a prefix-sum index over
// Intervals (guarded by cumOnce), and every subsequent O(1) window query
// assumes the interval data has not changed since. Mutating Intervals
// after first use yields stale windows; derive a new Profile instead.
type Profile struct {
	Meta      Meta       `json:"meta"`
	Intervals []Interval `json:"intervals"`

	// Prefix-sum index, populated lazily by index() and guarded by
	// cumOnce: profiles are shared read-only across concurrent model
	// evaluations. cumInstr[i] is the number of instructions before
	// interval i, and start[i] the same count as a float64; length[i]
	// is interval i's instruction count as a float64, so lookups convert
	// nothing. cumCycles/cumMemStall/cumLLCAcc are the analogous
	// cumulative float counters; cumSDC is a flattened
	// (len(Intervals)+1) x (ways+1) matrix whose row i holds the
	// element-wise sum of the SDCs of intervals [0, i).
	cumOnce     sync.Once
	cumInstr    []int64
	start       []float64
	length      []float64
	cumCycles   []float64
	cumMemStall []float64
	cumLLCAcc   []float64
	cumSDC      []float64
	// invAvg is intervals/instructions — the reciprocal of the mean
	// interval length. Real profiles have near-uniform intervals (the
	// profiler closes them on fixed instruction boundaries, give or
	// take one instruction gap), so position/avg is an O(1) interval
	// guess that a step or two of local walking corrects.
	invAvg float64

	// validOK memoizes a *successful* Validate: profiles are immutable
	// once in use, and the model layer re-validates them on every
	// evaluation. Failures are not memoized — a profile that never
	// validated was never "in use", so repairing it in place and
	// re-validating must work.
	validOK atomic.Bool
}

// Validate checks internal consistency. Success is memoized: the model
// layer re-validates profiles on every evaluation, and profiles are
// immutable once in use (see the type comment), so a valid profile is
// checked once. Failed validation is re-run each call, so an invalid
// profile may be repaired in place and re-validated.
func (p *Profile) Validate() error {
	if p.validOK.Load() {
		return nil
	}
	if err := p.validate(); err != nil {
		return err
	}
	p.validOK.Store(true)
	return nil
}

func (p *Profile) validate() error {
	if len(p.Intervals) == 0 {
		return fmt.Errorf("profile %s: no intervals", p.Meta.Benchmark)
	}
	var total int64
	// sum adds the cycle, stall and access counters: it is finite only if
	// every whole-trace aggregate (CPI, MemCPI, APKI) and every prefix
	// sum of those counters is finite.
	sum := 0.0
	for i, iv := range p.Intervals {
		if iv.Instructions <= 0 {
			return fmt.Errorf("profile %s: interval %d has %d instructions",
				p.Meta.Benchmark, i, iv.Instructions)
		}
		if !nonNegFinite(iv.Cycles) || !nonNegFinite(iv.MemStall) || !nonNegFinite(iv.LLCAccesses) {
			return fmt.Errorf("profile %s: interval %d has negative or non-finite counters",
				p.Meta.Benchmark, i)
		}
		if err := iv.SDC.Validate(); err != nil {
			return fmt.Errorf("profile %s: interval %d: %v", p.Meta.Benchmark, i, err)
		}
		if iv.SDC.Ways() != p.Meta.LLC.Ways {
			return fmt.Errorf("profile %s: interval %d SDC has %d ways, LLC has %d",
				p.Meta.Benchmark, i, iv.SDC.Ways(), p.Meta.LLC.Ways)
		}
		total += iv.Instructions
		sum += iv.Cycles + iv.MemStall + iv.LLCAccesses
	}
	if total != p.Meta.TraceLength {
		return fmt.Errorf("profile %s: intervals cover %d instructions, trace is %d",
			p.Meta.Benchmark, total, p.Meta.TraceLength)
	}
	if math.IsInf(sum, 1) {
		return fmt.Errorf("profile %s: counters overflow when summed", p.Meta.Benchmark)
	}
	return nil
}

// nonNegFinite reports whether v is a usable counter: not negative, NaN
// or infinite.
func nonNegFinite(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// TotalInstructions returns the total instruction count across intervals.
func (p *Profile) TotalInstructions() int64 {
	var n int64
	for _, iv := range p.Intervals {
		n += iv.Instructions
	}
	return n
}

// TotalCycles returns the total cycle count.
func (p *Profile) TotalCycles() float64 {
	c := 0.0
	for _, iv := range p.Intervals {
		c += iv.Cycles
	}
	return c
}

// CPI returns the whole-trace single-core CPI (CPI_SC in the paper). It
// reads the prefix index's totals, which are the same left-to-right sums
// TotalCycles and TotalInstructions compute.
func (p *Profile) CPI() float64 {
	cum := p.index()
	n := len(p.Intervals)
	if cum[n] == 0 {
		return 0
	}
	return p.cumCycles[n] / p.start[n]
}

// MemCPI returns the whole-trace memory CPI component (CPI_mem).
func (p *Profile) MemCPI() float64 {
	n := p.TotalInstructions()
	if n == 0 {
		return 0
	}
	s := 0.0
	for _, iv := range p.Intervals {
		s += iv.MemStall
	}
	return s / float64(n)
}

// LLCAccesses returns the total LLC access count.
func (p *Profile) LLCAccesses() float64 {
	a := 0.0
	for _, iv := range p.Intervals {
		a += iv.LLCAccesses
	}
	return a
}

// LLCMisses returns the total LLC miss count.
func (p *Profile) LLCMisses() float64 {
	m := 0.0
	for _, iv := range p.Intervals {
		m += iv.LLCMisses()
	}
	return m
}

// APKI returns LLC accesses per kilo-instruction.
func (p *Profile) APKI() float64 {
	n := p.TotalInstructions()
	if n == 0 {
		return 0
	}
	return p.LLCAccesses() / float64(n) * 1000
}

// MPKI returns LLC misses per kilo-instruction.
func (p *Profile) MPKI() float64 {
	n := p.TotalInstructions()
	if n == 0 {
		return 0
	}
	return p.LLCMisses() / float64(n) * 1000
}

// MemIntensity returns MemCPI / CPI, the fraction of execution time spent
// waiting on memory. The workload classifier uses it to split the suite
// into memory-intensive and compute-intensive programs.
func (p *Profile) MemIntensity() float64 {
	cpi := p.CPI()
	if cpi == 0 {
		return 0
	}
	return p.MemCPI() / cpi
}

func (p *Profile) index() []int64 {
	p.cumOnce.Do(func() {
		n := len(p.Intervals)
		stride := p.Meta.LLC.Ways + 1
		cum := make([]int64, n+1)
		start := make([]float64, n+1)
		length := make([]float64, n)
		cyc := make([]float64, n+1)
		mem := make([]float64, n+1)
		acc := make([]float64, n+1)
		sdcs := make([]float64, (n+1)*stride)
		for i, iv := range p.Intervals {
			cum[i+1] = cum[i] + iv.Instructions
			start[i+1] = float64(cum[i+1])
			length[i] = float64(iv.Instructions)
			cyc[i+1] = cyc[i] + iv.Cycles
			mem[i+1] = mem[i] + iv.MemStall
			acc[i+1] = acc[i] + iv.LLCAccesses
			row, next := sdcs[i*stride:(i+1)*stride], sdcs[(i+1)*stride:(i+2)*stride]
			// Only a profile that fails Validate has an SDC of another
			// width, and CPI reads this index too: clip rather than panic.
			for k, v := range iv.SDC[:min(len(iv.SDC), stride)] {
				next[k] = row[k] + v
			}
		}
		p.cumInstr = cum
		p.start = start
		p.length = length
		p.cumCycles = cyc
		p.cumMemStall = mem
		p.cumLLCAcc = acc
		p.cumSDC = sdcs
		p.invAvg = float64(n) / float64(cum[n])
	})
	return p.cumInstr
}

// locate returns the interval containing absolute position x in
// [0, total] plus the fraction of that interval covered by [start, x).
// x == total maps to the last interval with fraction 1.
//
// The index is guessed in O(1) by dividing by the mean interval length
// and corrected by walking at most a few steps — exact for uniform
// profiles and a step or two for the near-uniform ones the profiler
// emits. Profiles irregular enough to defeat the guess fall back to
// binary search.
func (p *Profile) locate(x float64) (int, float64) {
	start := p.start
	n := len(p.length)
	i := int(x * p.invAvg)
	if i > n-1 {
		i = n - 1
	}
	for steps := 0; steps < 4; steps++ {
		if start[i] > x {
			i--
			continue
		}
		if i+1 < n && start[i+1] <= x {
			i++
			continue
		}
		return i, clampFrac((x - start[i]) / p.length[i])
	}
	return p.locateSearch(x)
}

// locateSearch is locate's binary-search slow path for profiles with
// irregular interval lengths.
func (p *Profile) locateSearch(x float64) (int, float64) {
	n := len(p.length)
	start := p.start
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if start[mid+1] > x {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	i := lo
	if i >= n {
		i = n - 1
	}
	return i, clampFrac((x - start[i]) / p.length[i])
}

func clampFrac(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// addSegment accumulates the non-wrapping range [a.pos, b) of the trace
// (b <= total instructions) into dst: one prefix-sum lookup for b, the
// one a already holds, plus linear proration of the two boundary
// intervals.
func (p *Profile) addSegment(dst *Window, a *Cursor, b float64) {
	if b <= a.pos {
		return
	}
	ia, fa := a.i, a.frac
	ib, fb := p.locate(b)
	iva, ivb := &p.Intervals[ia], &p.Intervals[ib]
	dst.Instructions += b - a.pos
	dst.Cycles += nonneg((p.cumCycles[ib] + fb*ivb.Cycles) - (p.cumCycles[ia] + fa*iva.Cycles))
	dst.MemStall += nonneg((p.cumMemStall[ib] + fb*ivb.MemStall) - (p.cumMemStall[ia] + fa*iva.MemStall))
	dst.LLCAccesses += nonneg((p.cumLLCAcc[ib] + fb*ivb.LLCAccesses) - (p.cumLLCAcc[ia] + fa*iva.LLCAccesses))
	// Every row below has the window's length, so the loop carries no
	// bounds checks.
	sum := dst.SDC
	stride := len(sum)
	rowA, rowB := p.cumSDC[ia*stride:][:stride], p.cumSDC[ib*stride:][:stride]
	sdcA, sdcB := iva.SDC[:stride], ivb.SDC[:stride]
	for k := range sum {
		sum[k] += nonneg((rowB[k] + fb*sdcB[k]) - (rowA[k] + fa*sdcA[k]))
	}
}

func nonneg(x float64) float64 {
	if x < 0 {
		return 0
	}
	return x
}

// Window is the aggregate of profile characteristics over an instruction
// window, with partial intervals prorated linearly.
type Window struct {
	Instructions float64
	Cycles       float64
	MemStall     float64
	LLCAccesses  float64
	SDC          sdc.Counters
}

// CPI returns the window's cycles per instruction.
func (w Window) CPI() float64 {
	if w.Instructions == 0 {
		return 0
	}
	return w.Cycles / w.Instructions
}

// MemCPI returns the window's memory CPI.
func (w Window) MemCPI() float64 {
	if w.Instructions == 0 {
		return 0
	}
	return w.MemStall / w.Instructions
}

// LLCMisses returns the window's LLC miss count.
func (w Window) LLCMisses() float64 { return w.SDC.Misses() }

// maxInstructions bounds the positions and lengths the window queries
// accept: float64 counts instructions exactly only below 2^53, and the
// lookups turn positions into interval indices.
const maxInstructions = 1 << 53

// Cursor is a resolved window start: a trace position wrapped into
// [0, total), the interval that contains it and the fraction of that
// interval before it. Seek resolves a start once, and CPIFrom and
// WindowFrom then answer any number of windows from it without wrapping
// or locating the start again. The zero Cursor is the start of the
// trace. A Cursor belongs to the profile that made it.
type Cursor struct {
	pos  float64 // wrapped position; NaN marks an unusable start
	i    int     // interval containing pos
	frac float64 // fraction of interval i before pos
}

// Seek resolves the window start at absolute trace position pos, which
// wraps circularly around the trace and may be fractional or negative.
// A pos that is NaN, infinite or at least 2^53 in magnitude (beyond
// exact float64 instruction counts) gives a Cursor from which every
// window is empty and every CPI is 0.
func (p *Profile) Seek(pos float64) Cursor {
	if !(math.Abs(pos) < maxInstructions) {
		return Cursor{pos: math.NaN()}
	}
	p.index()
	pos = modFloat(pos, p.start[len(p.length)])
	i, frac := p.locate(pos)
	return Cursor{pos: pos, i: i, frac: frac}
}

// usable reports whether a window of n instructions from c has a
// defined value: c came from a finite Seek and n is in (0, 2^53).
func (c *Cursor) usable(n float64) bool {
	return n > 0 && n < maxInstructions && c.pos == c.pos
}

// WindowAt aggregates the profile over n instructions starting at
// absolute trace position pos. Positions wrap circularly around the
// trace, matching the model's behaviour of programs restarting their
// trace (Section 2.2: "faster running programs may iterate over their
// trace more than five times"). Both pos and n may be fractional. The
// window is empty when n is not in (0, 2^53) or pos is rejected by
// Seek.
//
// WindowAt allocates its result; hot paths should hold a Window and use
// WindowInto or WindowFrom instead.
func (p *Profile) WindowAt(pos, n float64) Window {
	var w Window
	p.WindowInto(&w, pos, n)
	return w
}

// WindowInto computes WindowAt(pos, n) into dst; see WindowFrom.
func (p *Profile) WindowInto(dst *Window, pos, n float64) {
	c := p.Seek(pos)
	p.WindowFrom(dst, &c, n)
}

// WindowFrom aggregates the n-instruction window that starts at c into
// dst, reusing dst's SDC backing storage when it matches the profile's
// associativity — the zero-steady-state-allocation path of the model
// kernel. Unlike the historical linear walk (WindowLinear) it runs in
// O(1) via the prefix-sum index: whole-trace wraps are one multiply of
// the trace totals, and each residual segment is a prefix lookup for
// its end plus linear proration of its boundary intervals. The window
// is empty when n is not in (0, 2^53) or c is unusable (see Seek).
func (p *Profile) WindowFrom(dst *Window, c *Cursor, n float64) {
	ways := p.Meta.LLC.Ways
	if dst.SDC == nil || dst.SDC.Ways() != ways {
		dst.SDC = sdc.New(ways)
	} else {
		dst.SDC.SetZero()
	}
	dst.Instructions, dst.Cycles, dst.MemStall, dst.LLCAccesses = 0, 0, 0, 0
	if !c.usable(n) {
		return
	}
	p.index()
	nIv := len(p.length)
	total := p.start[nIv]

	// Whole-trace wraps contribute the full-trace totals at once.
	if wraps := math.Floor(n / total); wraps > 0 {
		dst.Instructions += wraps * total
		dst.Cycles += wraps * p.cumCycles[nIv]
		dst.MemStall += wraps * p.cumMemStall[nIv]
		dst.LLCAccesses += wraps * p.cumLLCAcc[nIv]
		stride := ways + 1
		dst.SDC.AddScaledSlice(p.cumSDC[nIv*stride:(nIv+1)*stride], wraps)
		n -= wraps * total
		if n <= 0 {
			return
		}
	}
	if end := c.pos + n; end <= total {
		p.addSegment(dst, c, end)
	} else {
		var head Cursor
		p.addSegment(dst, c, total)
		p.addSegment(dst, &head, end-total)
	}
}

// CPIAt returns the local CPI of the n-instruction window at pos; see
// CPIFrom.
func (p *Profile) CPIAt(pos, n float64) float64 {
	c := p.Seek(pos)
	return p.CPIFrom(&c, n)
}

// CPIFrom returns the local CPI of the n-instruction window that starts
// at c — the cycles-only fast path of WindowFrom for the model's CPI
// probes, which touches neither the SDC matrix nor any scratch. It is 0
// when n is not in (0, 2^53) or c is unusable (see Seek).
func (p *Profile) CPIFrom(c *Cursor, n float64) float64 {
	if !c.usable(n) {
		return 0
	}
	p.index()
	nIv := len(p.length)
	total := p.start[nIv]

	cycles, rem := 0.0, n
	if wraps := math.Floor(rem / total); wraps > 0 {
		cycles += wraps * p.cumCycles[nIv]
		rem -= wraps * total
	}
	if rem > 0 {
		if end := c.pos + rem; end <= total {
			cycles += p.segmentCycles(c, end)
		} else {
			var head Cursor
			cycles += p.segmentCycles(c, total) + p.segmentCycles(&head, end-total)
		}
	}
	return cycles / n
}

// segmentCycles returns the cycle count of the non-wrapping range
// [a.pos, b) of the trace.
func (p *Profile) segmentCycles(a *Cursor, b float64) float64 {
	if b <= a.pos {
		return 0
	}
	ib, fb := p.locate(b)
	return nonneg((p.cumCycles[ib] + fb*p.Intervals[ib].Cycles) -
		(p.cumCycles[a.i] + a.frac*p.Intervals[a.i].Cycles))
}

// WindowLinear is the historical O(intervals) implementation of
// WindowAt, retained verbatim as the reference oracle for the
// prefix-sum fast path (see TestWindowPrefixMatchesLinear). It walks
// the interval list and allocates a fresh SDC per call; production code
// should use WindowAt / WindowInto.
func (p *Profile) WindowLinear(pos, n float64) Window {
	w := Window{SDC: sdc.New(p.Meta.LLC.Ways)}
	if n <= 0 {
		return w
	}
	cum := p.index()
	total := float64(cum[len(cum)-1])
	// Normalize pos into [0, total).
	pos = modFloat(pos, total)

	remaining := n
	for remaining > 1e-9 {
		if pos >= total {
			pos = 0
		}
		// Find interval containing pos. Rounding can push pos onto the
		// trace-end boundary, in which case the search returns the
		// interval count; wrap to the start.
		i := sort.Search(len(cum)-1, func(k int) bool { return float64(cum[k+1]) > pos })
		if i >= len(p.Intervals) {
			pos = 0
			continue
		}
		iv := &p.Intervals[i]
		ivStart := float64(cum[i])
		ivLen := float64(iv.Instructions)
		offset := pos - ivStart
		avail := ivLen - offset
		if avail <= 1e-9 {
			// Rounding landed pos on (or within noise of) the interval's
			// end: advance to the next boundary to guarantee progress.
			pos = float64(cum[i+1])
			continue
		}
		take := remaining
		if take > avail {
			take = avail
		}
		frac := take / ivLen
		w.Instructions += take
		w.Cycles += iv.Cycles * frac
		w.MemStall += iv.MemStall * frac
		w.LLCAccesses += iv.LLCAccesses * frac
		w.SDC.AddScaled(iv.SDC, frac)
		remaining -= take
		pos += take
	}
	return w
}

func modFloat(x, m float64) float64 {
	if m <= 0 {
		return 0
	}
	r := x - float64(int64(x/m))*m
	if r < 0 {
		r += m
	}
	if r >= m {
		// Guard against rounding producing r == m for x just below a
		// multiple of m; positions must stay strictly inside [0, m).
		r = 0
	}
	return r
}

// DeriveAssociativity returns a profile for an LLC with the same set
// count but newWays < Ways and (possibly different) access latency,
// without re-running single-core simulation. SDCs are folded; the hits
// that fold into misses are charged the interval's measured average miss
// penalty (falling back to the configured memory latency for intervals
// with no observed misses), and the latency delta is charged to every
// LLC access. The derivation assumes converted misses pay the average
// penalty — the same assumption MPPM itself makes — so derived profiles
// are approximate; TestDerivedProfileAccuracy quantifies the error.
func (p *Profile) DeriveAssociativity(newWays int, newLatency int) (*Profile, error) {
	if newWays > p.Meta.LLC.Ways {
		return nil, fmt.Errorf("profile %s: cannot derive %d-way from %d-way profile",
			p.Meta.Benchmark, newWays, p.Meta.LLC.Ways)
	}
	oldHitStall := p.Meta.CPU.LLCHitStall(p.Meta.LLC.LatencyCycles)
	newHitStall := p.Meta.CPU.LLCHitStall(newLatency)
	deltaHit := newHitStall - oldHitStall

	out := &Profile{Meta: p.Meta}
	out.Meta.Derived = true
	out.Meta.LLC.Ways = newWays
	out.Meta.LLC.SizeBytes = p.Meta.LLC.Sets() * int64(newWays) * p.Meta.LLC.LineSize
	out.Meta.LLC.LatencyCycles = newLatency

	out.Intervals = make([]Interval, len(p.Intervals))
	for i, iv := range p.Intervals {
		folded, err := iv.SDC.Fold(newWays)
		if err != nil {
			return nil, err
		}
		oldMisses := iv.LLCMisses()
		extraMisses := folded.Misses() - oldMisses
		penalty := p.Meta.CPU.MemLatency
		if oldMisses > 0.5 {
			penalty = iv.MemStall / oldMisses
		}
		extraStall := extraMisses * penalty
		out.Intervals[i] = Interval{
			Instructions: iv.Instructions,
			Cycles:       iv.Cycles + extraStall + deltaHit*iv.LLCAccesses,
			MemStall:     iv.MemStall + extraStall,
			LLCAccesses:  iv.LLCAccesses,
			SDC:          folded,
		}
	}
	return out, nil
}

// WriteJSON serializes the profile as indented JSON.
func (p *Profile) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(p)
}

// ReadJSON deserializes a profile written by WriteJSON and validates it.
func ReadJSON(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("profile: decode: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// Set is a keyed collection of profiles (one per benchmark) collected
// under the same configuration.
type Set struct {
	Profiles map[string]*Profile `json:"profiles"`
}

// NewSet builds a Set from profiles, keyed by benchmark name.
func NewSet(ps ...*Profile) *Set {
	s := &Set{Profiles: make(map[string]*Profile, len(ps))}
	for _, p := range ps {
		s.Profiles[p.Meta.Benchmark] = p
	}
	return s
}

// Get returns the profile for a benchmark.
func (s *Set) Get(name string) (*Profile, error) {
	p, ok := s.Profiles[name]
	if !ok {
		return nil, fmt.Errorf("profile: no profile for %q: %w", name, mppmerr.ErrNoProfiles)
	}
	return p, nil
}

// Names returns the benchmark names in sorted order.
func (s *Set) Names() []string {
	names := make([]string, 0, len(s.Profiles))
	for n := range s.Profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON serializes the set.
func (s *Set) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(s)
}

// ReadSetJSON deserializes a Set and validates every profile.
func ReadSetJSON(r io.Reader) (*Set, error) {
	var s Set
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("profile: decode set: %w", err)
	}
	for name, p := range s.Profiles {
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("profile: set entry %s: %w", name, err)
		}
	}
	return &s, nil
}
