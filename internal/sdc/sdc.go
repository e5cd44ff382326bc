// Package sdc implements stack distance counters (SDCs), the cache
// locality summary at the heart of the paper (Mattson et al., 1970).
//
// An SDC for an A-way set-associative LRU cache is A+1 counters
// C1..CA, C>A. Every access increments exactly one counter: Ci when the
// access hits the i-th position of its set's LRU stack, C>A on a miss.
// Because LRU has the stack inclusion property per set, the counters for
// a smaller associativity A' < A (same set count) can be derived by
// folding: counters beyond A' become misses. The same property lets the
// contention models evaluate "how many accesses would miss if this
// program only effectively owned E ways" by summing counters past depth E,
// with linear interpolation for fractional E.
package sdc

import (
	"fmt"
	"math"
)

// Counters holds an SDC: Counters[i] for 0 <= i < Ways() counts hits at
// LRU depth i+1 and the final element counts misses. Values are float64
// so that windows prorated over partial profiling intervals stay exact.
type Counters []float64

// New returns zeroed counters for an A-way cache (length A+1).
func New(ways int) Counters {
	if ways < 1 {
		panic(fmt.Sprintf("sdc: ways %d < 1", ways))
	}
	return make(Counters, ways+1)
}

// From reinterprets a borrowed backing slice of ways+1 elements as
// Counters without copying, so callers that own a large scratch array
// (e.g. the model kernel's per-program window SDCs) can carve views out
// of it and keep every per-window SDC off the heap. The caller retains
// ownership: mutations through the returned Counters are visible in
// backing and vice versa.
func From(backing []float64) Counters {
	if len(backing) < 2 {
		panic(fmt.Sprintf("sdc: backing too short (%d)", len(backing)))
	}
	return Counters(backing)
}

// Ways returns the associativity this SDC was collected at.
func (c Counters) Ways() int { return len(c) - 1 }

// Record increments the counter for a hit at the given 1-based depth, or
// the miss counter when depth is 0 (miss).
func (c Counters) Record(depth int) {
	if depth <= 0 || depth > c.Ways() {
		c[c.Ways()]++
		return
	}
	c[depth-1]++
}

// Accesses returns the total number of accesses recorded.
func (c Counters) Accesses() float64 {
	sum := 0.0
	for _, v := range c {
		sum += v
	}
	return sum
}

// Misses returns the miss counter C>A.
func (c Counters) Misses() float64 { return c[c.Ways()] }

// Hits returns total hits (accesses - misses).
func (c Counters) Hits() float64 { return c.Accesses() - c.Misses() }

// Clone returns a copy.
func (c Counters) Clone() Counters {
	out := make(Counters, len(c))
	copy(out, c)
	return out
}

// Add accumulates other into c. Both must have the same associativity.
func (c Counters) Add(other Counters) {
	if len(c) != len(other) {
		panic(fmt.Sprintf("sdc: associativity mismatch %d vs %d", len(c)-1, len(other)-1))
	}
	for i, v := range other {
		c[i] += v
	}
}

// AddScaled accumulates frac * other into c, used to prorate a partial
// profiling interval over a model window.
func (c Counters) AddScaled(other Counters, frac float64) {
	if len(c) != len(other) {
		panic(fmt.Sprintf("sdc: associativity mismatch %d vs %d", len(c)-1, len(other)-1))
	}
	c.AddScaledSlice(other, frac)
}

// AddScaledSlice accumulates frac * vals into c in place, where vals is
// a raw counter row of the same length — typically a row of a flattened
// cumulative SDC matrix. It is the allocation-free accumulation
// primitive behind AddScaled.
func (c Counters) AddScaledSlice(vals []float64, frac float64) {
	if len(c) != len(vals) {
		panic(fmt.Sprintf("sdc: length mismatch %d vs %d", len(c), len(vals)))
	}
	for i, v := range vals {
		c[i] += v * frac
	}
}

// SetZero zeroes all counters in place, preserving the backing storage —
// the scratch-reuse reset of the zero-allocation window path.
func (c Counters) SetZero() {
	for i := range c {
		c[i] = 0
	}
}

// Reset zeroes all counters. It is equivalent to SetZero.
func (c Counters) Reset() { c.SetZero() }

// Fold derives the SDC the same access stream would produce on a cache
// with the same set count but smaller associativity ways' < Ways().
// Hits beyond depth ways' become misses (LRU stack inclusion). This is
// the mechanism the paper uses to derive reduced-associativity profiles
// without additional single-core simulations.
func (c Counters) Fold(ways int) (Counters, error) {
	if ways < 1 || ways > c.Ways() {
		return nil, fmt.Errorf("sdc: cannot fold %d-way SDC to %d ways", c.Ways(), ways)
	}
	out := New(ways)
	copy(out[:ways], c[:ways])
	for i := ways; i < len(c); i++ {
		out[ways] += c[i]
	}
	return out, nil
}

// MissesAtWays returns the number of accesses that would miss if the
// program effectively owned e ways of its sets (0 <= e <= Ways()),
// linearly interpolating between integer depths for fractional e. At
// e = Ways() this equals Misses(); at e = 0 every access misses.
func (c Counters) MissesAtWays(e float64) float64 {
	return c.MissesBeyond(e, c.Accesses())
}

// MissesBeyond is MissesAtWays with the total access count supplied by
// the caller, for hot paths that evaluate several effective depths (or
// several programs) against SDCs whose totals they already hold:
// recomputing Accesses is the only O(ways) term this saves, the hit
// summation below depth e is inherent.
func (c Counters) MissesBeyond(e, accesses float64) float64 {
	a := c.Ways()
	if e >= float64(a) {
		return c.Misses()
	}
	if !(e >= 0) { // NaN too: an overflowed window must not index by int(NaN)
		e = 0
	}
	// hits(e) = sum of counters for depths <= floor(e), plus a fractional
	// share of the next depth's counter.
	whole := int(e)
	hits := 0.0
	for i := 0; i < whole; i++ {
		hits += c[i]
	}
	frac := e - float64(whole)
	if whole < a {
		hits += frac * c[whole]
	}
	return accesses - hits
}

// ExtraMissesAtWays returns how many additional misses the program
// suffers when squeezed from its full associativity down to e effective
// ways: MissesAtWays(e) - Misses(), clamped at zero.
func (c Counters) ExtraMissesAtWays(e float64) float64 {
	extra := c.MissesAtWays(e) - c.Misses()
	if extra < 0 {
		return 0
	}
	return extra
}

// Validate reports whether all counters are finite and non-negative.
func (c Counters) Validate() error {
	if len(c) < 2 {
		return fmt.Errorf("sdc: too short (%d)", len(c))
	}
	for i, v := range c {
		if !(v >= 0) || math.IsInf(v, 1) { // !(v >= 0) catches NaN
			return fmt.Errorf("sdc: counter %d invalid (%v)", i, v)
		}
	}
	return nil
}

// Monitor observes an access stream against a standalone LRU "shadow"
// tag store and produces SDCs, independent of any real cache. The
// profiler uses the LLC itself for the primary profile; Monitor exists to
// collect SDCs for alternative geometries in the same run (for example a
// 16-way shadow while simulating an 8-way LLC) and for tests.
type Monitor struct {
	sets     int64
	ways     int
	mask     uint64
	shift    uint
	tags     []uint64
	valid    []bool
	counters Counters
}

// NewMonitor builds a shadow monitor with the given geometry. Set count
// must be a power of two.
func NewMonitor(sets int64, ways int, lineSize int64) (*Monitor, error) {
	if sets < 1 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("sdc: set count %d not a power of two", sets)
	}
	if ways < 1 {
		return nil, fmt.Errorf("sdc: ways %d < 1", ways)
	}
	if lineSize < 1 || lineSize&(lineSize-1) != 0 {
		return nil, fmt.Errorf("sdc: line size %d not a power of two", lineSize)
	}
	shift := uint(0)
	for l := lineSize; l > 1; l >>= 1 {
		shift++
	}
	return &Monitor{
		sets:     sets,
		ways:     ways,
		mask:     uint64(sets - 1),
		shift:    shift,
		tags:     make([]uint64, sets*int64(ways)),
		valid:    make([]bool, sets*int64(ways)),
		counters: New(ways),
	}, nil
}

// Observe records one access and updates the shadow LRU state.
func (m *Monitor) Observe(addr uint64) {
	set := (addr >> m.shift) & m.mask
	base := int(set) * m.ways
	tag := addr >> m.shift
	for i := 0; i < m.ways; i++ {
		if m.valid[base+i] && m.tags[base+i] == tag {
			m.counters.Record(i + 1)
			copy(m.tags[base+1:base+i+1], m.tags[base:base+i])
			m.tags[base] = tag
			return
		}
	}
	m.counters.Record(0)
	copy(m.tags[base+1:base+m.ways], m.tags[base:base+m.ways-1])
	copy(m.valid[base+1:base+m.ways], m.valid[base:base+m.ways-1])
	m.tags[base] = tag
	m.valid[base] = true
}

// Counters returns the live counter vector (not a copy).
func (m *Monitor) Counters() Counters { return m.counters }

// TakeCounters returns the accumulated counters and resets them, leaving
// the shadow tag state intact — exactly what per-interval profiling needs.
func (m *Monitor) TakeCounters() Counters {
	out := m.counters.Clone()
	m.counters.Reset()
	return out
}
