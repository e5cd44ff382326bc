// Package trace generates deterministic synthetic instruction/memory-access
// traces that stand in for the paper's SPEC CPU2006 SimPoint traces.
//
// The paper's method consumes only aggregate statistics of a trace
// (per-interval CPI, memory CPI and LLC stack distance counters), so the
// substitution requirement is that the synthetic workloads span the same
// qualitative space: compute-bound programs, streaming memory-bound
// programs, irregular memory-bound programs, and cache-sensitive programs
// whose working set fits the shared LLC when run alone but not under
// sharing (the paper's gamess). Each benchmark is a seeded, fully
// deterministic generator: Reset always reproduces the identical stream,
// which the profiling and simulation layers rely on.
//
// A trace is a sequence of memory references. Each reference carries the
// number of instructions executed since the previous reference (Gap) and
// the non-memory base cycles those instructions cost (GapCycles), so the
// timing model owns only cache-stall accounting.
package trace

import (
	"errors"
	"fmt"
	"math"
)

// LineSize is the cache line size in bytes used throughout the system.
const LineSize = 64

// RegionKind selects the address pattern generated inside a region.
type RegionKind int

const (
	// Hot regions are accessed uniformly at random, line-granular. They
	// model heavily reused working sets (hash tables, hot arrays).
	Hot RegionKind = iota
	// Stream regions are walked sequentially line by line with wraparound.
	// They model streaming sweeps over large arrays (lbm, libquantum).
	Stream
	// Stride regions are walked with a fixed stride larger than a line,
	// modelling column-major or strided array walks that stress
	// particular cache sets.
	Stride
)

// String returns the region kind name.
func (k RegionKind) String() string {
	switch k {
	case Hot:
		return "hot"
	case Stream:
		return "stream"
	case Stride:
		return "stride"
	default:
		return fmt.Sprintf("RegionKind(%d)", int(k))
	}
}

// Region describes one logical data structure of a synthetic benchmark.
type Region struct {
	Kind   RegionKind
	Size   uint64 // bytes; rounded up to a whole number of lines
	Stride uint64 // bytes per step for Stride regions; 0 means LineSize
	// Dependent marks accesses whose misses are serialized by data
	// dependences (pointer chasing, irregular reuse): the core cannot
	// overlap them with earlier misses, so each one pays the full memory
	// latency. Streaming regions leave this false and benefit from
	// memory-level parallelism.
	Dependent bool
}

// lines returns the number of cache lines the region spans.
func (r Region) lines() uint64 {
	n := (r.Size + LineSize - 1) / LineSize
	if n == 0 {
		n = 1
	}
	return n
}

// Phase describes one execution phase of a benchmark: its share of the
// trace, its non-memory CPI, its memory intensity, and how accesses are
// distributed over the benchmark's regions.
type Phase struct {
	Frac      float64   // fraction of the trace's instructions spent in this phase
	BaseCPI   float64   // cycles per instruction with a perfect memory hierarchy
	RefsPerKI float64   // memory references per 1000 instructions
	WriteFrac float64   // fraction of references that are stores
	Weights   []float64 // access probability per region (same order as Spec.Regions)
}

// Spec fully describes a synthetic benchmark.
type Spec struct {
	Name    string
	Seed    uint64
	Regions []Region
	Phases  []Phase
}

// Validate reports whether the spec is internally consistent.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("trace: spec has no name")
	}
	if len(s.Regions) == 0 {
		return fmt.Errorf("trace: %s: no regions", s.Name)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("trace: %s: no phases", s.Name)
	}
	fracSum := 0.0
	for i, p := range s.Phases {
		if p.Frac <= 0 {
			return fmt.Errorf("trace: %s: phase %d has non-positive Frac", s.Name, i)
		}
		if p.BaseCPI <= 0 {
			return fmt.Errorf("trace: %s: phase %d has non-positive BaseCPI", s.Name, i)
		}
		if p.RefsPerKI <= 0 {
			return fmt.Errorf("trace: %s: phase %d has non-positive RefsPerKI", s.Name, i)
		}
		if p.WriteFrac < 0 || p.WriteFrac > 1 {
			return fmt.Errorf("trace: %s: phase %d WriteFrac out of [0,1]", s.Name, i)
		}
		if len(p.Weights) != len(s.Regions) {
			return fmt.Errorf("trace: %s: phase %d has %d weights for %d regions",
				s.Name, i, len(p.Weights), len(s.Regions))
		}
		wsum := 0.0
		for _, w := range p.Weights {
			if w < 0 {
				return fmt.Errorf("trace: %s: phase %d has negative weight", s.Name, i)
			}
			wsum += w
		}
		if wsum <= 0 {
			return fmt.Errorf("trace: %s: phase %d has zero total weight", s.Name, i)
		}
		fracSum += p.Frac
	}
	if math.Abs(fracSum-1) > 1e-6 {
		return fmt.Errorf("trace: %s: phase fractions sum to %v, want 1", s.Name, fracSum)
	}
	return nil
}

// Footprint returns the total data footprint of the benchmark in bytes.
func (s *Spec) Footprint() uint64 {
	var total uint64
	for _, r := range s.Regions {
		total += r.lines() * LineSize
	}
	return total
}

// Ref is one memory reference of a trace.
type Ref struct {
	Addr      uint64  // byte address (line-aligned)
	Write     bool    // true for stores
	Dependent bool    // miss cannot overlap earlier misses (see Region.Dependent)
	Gap       int64   // instructions executed since the previous Ref, >= 1
	GapCycles float64 // non-memory cycles for those Gap instructions
}

// Line returns the cache line address (Addr / LineSize).
func (r Ref) Line() uint64 { return r.Addr / LineSize }

// xorshift is a small deterministic PRNG (xorshift64*). It is local to
// this package so trace generation never depends on math/rand's global
// state and remains bit-reproducible.
type xorshift struct{ s uint64 }

func newXorshift(seed uint64) xorshift {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return xorshift{s: seed}
}

func (x *xorshift) next() uint64 {
	x.s ^= x.s >> 12
	x.s ^= x.s << 25
	x.s ^= x.s >> 27
	return x.s * 0x2545F4914F6CDD1D
}

// float64 returns a uniform value in [0, 1).
func (x *xorshift) float64() float64 {
	return float64(x.next()>>11) / (1 << 53)
}

// uint64n returns a uniform value in [0, n).
func (x *xorshift) uint64n(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	return x.next() % n
}

// Reader generates the reference stream for one benchmark at a chosen
// trace length. It is deterministic: two Readers with the same spec and
// length produce identical streams, and Reset rewinds exactly.
type Reader struct {
	spec   Spec
	length int64 // total instructions in the trace

	phaseEnds []int64     // cumulative instruction boundary of each phase
	meanGap   []float64   // per-phase mean instruction gap, 1000/RefsPerKI
	cumWeight [][]float64 // per-phase cumulative region weights (normalized)
	regions   []regionWalk

	// Mutable generation state (reset by Reset).
	phase    int
	instr    int64 // instructions generated so far
	rng      xorshift
	cursors  []uint64 // per-region walk cursor (lines) for Stream/Stride
	gapCarry float64
}

// regionWalk is a region's address layout, precomputed by NewReader.
type regionWalk struct {
	base      uint64 // byte base address
	lines     uint64 // lines spanned
	step      uint64 // Stream/Stride cursor advance, reduced modulo lines
	kind      RegionKind
	dependent bool
}

// NewReader builds a Reader for spec with the given total instruction
// count. It returns an error if the spec is invalid or length < 1.
func NewReader(spec Spec, length int64) (*Reader, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if length < 1 {
		return nil, fmt.Errorf("trace: %s: non-positive length %d", spec.Name, length)
	}
	r := &Reader{spec: spec, length: length}

	r.phaseEnds = make([]int64, len(spec.Phases))
	r.meanGap = make([]float64, len(spec.Phases))
	acc := 0.0
	for i, p := range spec.Phases {
		acc += p.Frac
		r.phaseEnds[i] = int64(math.Round(acc * float64(length)))
		// Mean gap 1000/RefsPerKI; Next adds ±50% deterministic jitter.
		r.meanGap[i] = 1000 / p.RefsPerKI
	}
	r.phaseEnds[len(r.phaseEnds)-1] = length // absorb rounding

	r.cumWeight = make([][]float64, len(spec.Phases))
	for i, p := range spec.Phases {
		cum := make([]float64, len(p.Weights))
		sum := 0.0
		for _, w := range p.Weights {
			sum += w
		}
		c := 0.0
		for j, w := range p.Weights {
			c += w / sum
			cum[j] = c
		}
		cum[len(cum)-1] = 1 // absorb rounding
		r.cumWeight[i] = cum
	}

	// Lay regions out back to back with a guard line between them so
	// regions never share a cache line.
	r.regions = make([]regionWalk, len(spec.Regions))
	var base uint64
	for i, reg := range spec.Regions {
		lines := reg.lines()
		step := uint64(1) // Stream walks line by line
		if reg.Kind == Stride {
			stride := reg.Stride
			if stride == 0 {
				stride = LineSize
			}
			step = (stride + LineSize - 1) / LineSize
		}
		r.regions[i] = regionWalk{
			base: base, lines: lines, step: step % lines,
			kind: reg.Kind, dependent: reg.Dependent,
		}
		base += (lines + 1) * LineSize
	}

	r.cursors = make([]uint64, len(spec.Regions))
	r.Reset()
	return r, nil
}

// Spec returns the benchmark spec this reader generates.
func (r *Reader) Spec() Spec { return r.spec }

// Instructions returns the total instruction count of the trace.
func (r *Reader) Instructions() int64 { return r.length }

// Pos returns the number of instructions generated so far.
func (r *Reader) Pos() int64 { return r.instr }

// Reset rewinds the reader to the start of the trace. The regenerated
// stream is bit-identical to the first pass.
func (r *Reader) Reset() {
	r.phase = 0
	r.instr = 0
	r.rng = newXorshift(r.spec.Seed)
	clear(r.cursors)
	r.gapCarry = 0
}

// Next returns the next memory reference. ok is false once the trace's
// instruction budget is exhausted; the final reference may carry a Gap
// that exactly lands on the trace end.
func (r *Reader) Next() (ref Ref, ok bool) {
	ok = r.next(&ref)
	return ref, ok
}

// next generates the next reference into *ref, overwriting every field,
// and reports false (leaving *ref untouched) at the end of the trace.
// ReadBlock calls it on its destination slots, so a block is generated
// in place.
func (r *Reader) next(ref *Ref) bool {
	if r.instr >= r.length {
		return false
	}
	for r.phase < len(r.phaseEnds)-1 && r.instr >= r.phaseEnds[r.phase] {
		r.phase++
	}
	p := &r.spec.Phases[r.phase]

	// Instruction gap: the phase's mean with ±50% deterministic jitter.
	g := r.meanGap[r.phase]*(0.5+r.rng.float64()) + r.gapCarry
	gap := int64(g)
	r.gapCarry = g - float64(gap)
	if gap < 1 {
		gap = 1
		r.gapCarry = 0
	}
	if r.instr+gap > r.length {
		gap = r.length - r.instr
	}
	r.instr += gap

	// Pick a region according to the phase's cumulative weights.
	u := r.rng.float64()
	cum := r.cumWeight[r.phase]
	ri := len(cum) - 1
	for j, c := range cum {
		if u < c {
			ri = j
			break
		}
	}
	reg := &r.regions[ri]
	var line uint64
	if reg.kind == Hot {
		line = r.rng.uint64n(reg.lines)
	} else {
		// Stream and Stride walk with wraparound; the cursor is below
		// lines and the step was reduced modulo lines, so one compare
		// replaces the modulo.
		line = r.cursors[ri]
		next := line + reg.step
		if next >= reg.lines {
			next -= reg.lines
		}
		r.cursors[ri] = next
	}

	ref.Addr = reg.base + line*LineSize
	ref.Write = r.rng.float64() < p.WriteFrac
	ref.Dependent = reg.dependent
	ref.Gap = gap
	ref.GapCycles = float64(gap) * p.BaseCPI
	return true
}

// ReadBlock implements BlockSource by generating straight into dst.
// Generation happens through direct method calls, so consumers reading
// through a Cursor pay one interface dispatch per block instead of one
// per reference.
func (r *Reader) ReadBlock(dst []Ref) int {
	n := 0
	for n < len(dst) && r.next(&dst[n]) {
		n++
	}
	return n
}

var _ BlockSource = (*Reader)(nil)

// ExpectedBaseCPI returns the trace-length-weighted average BaseCPI over
// all phases — the CPI the benchmark would have with a perfect memory
// hierarchy. Useful for calibration tests.
func (r *Reader) ExpectedBaseCPI() float64 {
	sum := 0.0
	for _, p := range r.spec.Phases {
		sum += p.Frac * p.BaseCPI
	}
	return sum
}
