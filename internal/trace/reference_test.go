package trace

import (
	"math"
	"testing"
)

// refReader is the generator before per-phase and per-region quantities
// were precomputed and references were generated in place: NewReader's
// layout and Next are kept verbatim. It is the differential oracle for
// Reader (TestReaderMatchesReference).
type refReader struct {
	spec   Spec
	length int64

	phaseEnds []int64
	cumWeight [][]float64

	phase    int
	instr    int64
	rng      xorshift
	cursors  []uint64
	gapCarry float64

	regionBase []uint64
}

func newRefReader(spec Spec, length int64) *refReader {
	r := &refReader{spec: spec, length: length}

	r.phaseEnds = make([]int64, len(spec.Phases))
	acc := 0.0
	for i, p := range spec.Phases {
		acc += p.Frac
		r.phaseEnds[i] = int64(math.Round(acc * float64(length)))
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

	r.regionBase = make([]uint64, len(spec.Regions))
	var base uint64
	for i, reg := range spec.Regions {
		r.regionBase[i] = base
		base += (reg.lines() + 1) * LineSize
	}

	r.rng = newXorshift(r.spec.Seed)
	r.cursors = make([]uint64, len(r.spec.Regions))
	return r
}

func (r *refReader) Next() (ref Ref, ok bool) {
	if r.instr >= r.length {
		return Ref{}, false
	}
	for r.phase < len(r.phaseEnds)-1 && r.instr >= r.phaseEnds[r.phase] {
		r.phase++
	}
	p := &r.spec.Phases[r.phase]

	// Instruction gap: mean 1000/RefsPerKI with ±50% deterministic jitter.
	mean := 1000 / p.RefsPerKI
	g := mean*(0.5+r.rng.float64()) + r.gapCarry
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
	reg := &r.spec.Regions[ri]
	lines := reg.lines()
	var line uint64
	switch reg.Kind {
	case Hot:
		line = r.rng.uint64n(lines)
	case Stream:
		line = r.cursors[ri]
		r.cursors[ri] = (line + 1) % lines
	case Stride:
		stride := reg.Stride
		if stride == 0 {
			stride = LineSize
		}
		strideLines := (stride + LineSize - 1) / LineSize
		line = r.cursors[ri]
		r.cursors[ri] = (line + strideLines) % lines
	}
	addr := r.regionBase[ri] + line*LineSize

	return Ref{
		Addr:      addr,
		Write:     r.rng.float64() < p.WriteFrac,
		Dependent: reg.Dependent,
		Gap:       gap,
		GapCycles: float64(gap) * p.BaseCPI,
	}, true
}

// wrapSpec walks small Stream and Stride regions often enough that
// every cursor wraps many times: a one-line stream, strides that do not
// divide their region, a stride wider than its region, a stride of
// zero (one line) and a sub-line stride.
func wrapSpec() Spec {
	return Spec{
		Name: "wrap", Seed: 99,
		Regions: []Region{
			{Kind: Stream, Size: 1},
			{Kind: Stream, Size: 7 * LineSize, Dependent: true},
			{Kind: Stride, Size: 100 * LineSize, Stride: 7 * LineSize},
			{Kind: Stride, Size: 100 * LineSize, Stride: 301 * LineSize},
			{Kind: Stride, Size: 13 * LineSize},
			{Kind: Stride, Size: 64 * LineSize, Stride: 100},
			{Kind: Hot, Size: 3 * LineSize},
		},
		Phases: []Phase{
			{Frac: 0.3, BaseCPI: 0.6, RefsPerKI: 400, WriteFrac: 0.3, Weights: []float64{1, 2, 3, 3, 2, 2, 1}},
			{Frac: 0.7, BaseCPI: 1.3, RefsPerKI: 1500, WriteFrac: 0.6, Weights: []float64{0, 1, 4, 4, 1, 1, 0}},
		},
	}
}

// TestReaderMatchesReference: over the whole suite and a spec built to
// wrap every walk cursor, Reader's Next and ReadBlock streams must equal
// refReader's field for field.
func TestReaderMatchesReference(t *testing.T) {
	specs := append(Suite(), wrapSpec())
	for _, spec := range specs {
		const length = 300_000
		ref := newRefReader(spec, length)
		r, err := NewReader(spec, length)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := NewReader(spec, length)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]Ref, 61)
		var n, pos int
		for i := 0; ; i++ {
			want, wok := ref.Next()
			got, gok := r.Next()
			if pos == n {
				n, pos = blk.ReadBlock(buf), 0
			}
			if gok != wok || got != want || (wok != (n > 0)) || (wok && buf[pos] != want) {
				t.Fatalf("%s ref %d: Next = %+v/%v, ReadBlock = %+v, want %+v/%v",
					spec.Name, i, got, gok, buf[pos%len(buf)], want, wok)
			}
			if !wok {
				break
			}
			pos++
		}
	}
}
