package profile

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sdc"
)

// randomProfile builds a valid profile with the given interval count
// and associativity. uniform selects equal-length intervals (the
// locate-by-division fast path) versus irregular ones (binary search).
func randomProfile(rng *rand.Rand, intervals, ways int, uniform bool) *Profile {
	p := &Profile{Meta: testMeta(ways)}
	fixed := int64(1 + rng.Intn(500))
	var total int64
	for i := 0; i < intervals; i++ {
		instr := fixed
		if !uniform {
			instr = int64(1 + rng.Intn(500))
		}
		counters := make(sdc.Counters, ways+1)
		for k := range counters {
			counters[k] = float64(rng.Intn(100))
		}
		p.Intervals = append(p.Intervals, Interval{
			Instructions: instr,
			Cycles:       rng.Float64() * 1000,
			MemStall:     rng.Float64() * 200,
			LLCAccesses:  rng.Float64() * 300,
			SDC:          counters,
		})
		total += instr
	}
	p.Meta.TraceLength = total
	p.Meta.IntervalLength = p.Intervals[0].Instructions
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// windowClose compares two windows with a relative tolerance: the prefix
// path reorders floating-point additions, so low-bit drift is expected.
func windowClose(t *testing.T, got, want Window, ctx string) {
	t.Helper()
	close := func(a, b float64, what string) {
		t.Helper()
		tol := 1e-9 * (1 + math.Abs(b))
		if math.Abs(a-b) > tol {
			t.Fatalf("%s: %s = %v, want %v (diff %v)", ctx, what, a, b, a-b)
		}
	}
	close(got.Instructions, want.Instructions, "Instructions")
	close(got.Cycles, want.Cycles, "Cycles")
	close(got.MemStall, want.MemStall, "MemStall")
	close(got.LLCAccesses, want.LLCAccesses, "LLCAccesses")
	if got.SDC.Ways() != want.SDC.Ways() {
		t.Fatalf("%s: ways %d vs %d", ctx, got.SDC.Ways(), want.SDC.Ways())
	}
	for k := range got.SDC {
		close(got.SDC[k], want.SDC[k], "SDC")
	}
}

// TestWindowPrefixMatchesLinear is the property test of the tentpole:
// the O(1) prefix-sum window must agree with the historical linear
// accumulation for every profile shape — circular wrap, fractional pos
// and n, multi-trace windows and single-interval profiles.
func TestWindowPrefixMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, intervals := range []int{1, 2, 3, 7, 50} {
		for _, ways := range []int{1, 2, 8, 16} {
			p := randomProfile(rng, intervals, ways, intervals%2 == 0)
			total := float64(p.TotalInstructions())
			positions := []float64{
				0, 0.25, 1, total / 3, total/2 + 0.125, total - 1,
				total - 1e-6, total, total + 7.5, 3 * total, -12.75,
			}
			sizes := []float64{
				1e-7, 0.5, 1, 7.25, total / 5, total - 0.5, total,
				total + 0.25, 2.5 * total, 4 * total,
			}
			for _, pos := range positions {
				for _, n := range sizes {
					got := p.WindowAt(pos, n)
					want := p.WindowLinear(pos, n)
					windowClose(t, got, want, fmt.Sprintf(
						"intervals=%d ways=%d pos=%v n=%v", intervals, ways, pos, n))

					// CPIAt is the cycles-only fast probe of the same window.
					if n > 1e-6 {
						wantCPI := want.CPI()
						gotCPI := p.CPIAt(pos, n)
						if math.Abs(gotCPI-wantCPI) > 1e-9*(1+math.Abs(wantCPI)) {
							t.Fatalf("CPIAt(%v, %v) = %v, want %v", pos, n, gotCPI, wantCPI)
						}
					}
				}
			}
			// Randomized sweep on top of the grid.
			for trial := 0; trial < 200; trial++ {
				pos := (rng.Float64()*4 - 1) * total
				n := rng.Float64() * 3 * total
				got := p.WindowAt(pos, n)
				want := p.WindowLinear(pos, n)
				windowClose(t, got, want, "random trial")
			}
		}
	}
}

// TestWindowIntoZeroAlloc locks in the zero-allocation property of the
// steady-state window path: once dst owns an SDC of the right
// associativity, neither WindowInto nor the cursor queries may touch
// the heap.
func TestWindowIntoZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProfile(rng, 50, 16, false)
	total := float64(p.TotalInstructions())
	var w Window
	p.WindowInto(&w, 0, 1) // builds index + scratch
	pos := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		p.WindowInto(&w, pos, total/5+0.5)
		pos += total/7 + 0.25
	})
	if allocs != 0 {
		t.Fatalf("WindowInto allocates %v times per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		if p.CPIAt(pos, total/5) <= 0 {
			t.Fatal("zero CPI")
		}
		pos += total / 11
	})
	if allocs != 0 {
		t.Fatalf("CPIAt allocates %v times per call, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		c := p.Seek(pos)
		p.CPIFrom(&c, total/5)
		p.WindowFrom(&w, &c, total/4)
		pos += total / 13
	})
	if allocs != 0 {
		t.Fatalf("Seek, CPIFrom and WindowFrom allocate %v times per start, want 0", allocs)
	}
}

// TestValidateMemoizesSuccessOnly: a valid profile is checked once,
// but an invalid one may be repaired in place and re-validated.
func TestValidateMemoizesSuccessOnly(t *testing.T) {
	p := testProfile()
	p.Intervals[0].Cycles = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative cycles should fail validation")
	}
	p.Intervals[0].Cycles = 100 // repair in place
	if err := p.Validate(); err != nil {
		t.Fatalf("repaired profile still fails: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("memoized success lost: %v", err)
	}
}

// TestWindowIntoReusesBacking verifies dst's SDC backing survives reuse
// and is replaced only on an associativity change.
func TestWindowIntoReusesBacking(t *testing.T) {
	p := testProfile() // 2-way
	var w Window
	p.WindowInto(&w, 0, 100)
	first := &w.SDC[0]
	p.WindowInto(&w, 50, 200)
	if &w.SDC[0] != first {
		t.Fatal("WindowInto reallocated a matching SDC")
	}
	if w.SDC.Ways() != 2 {
		t.Fatalf("ways = %d", w.SDC.Ways())
	}
}

// checkCursorQueries drives one Seek and all three window queries from
// it against WindowLinear, then checks that the cursor-based answers
// are exactly those of the position-based wrappers: a Cursor is read,
// never advanced, so the kernel can ask it three questions.
func checkCursorQueries(t *testing.T, p *Profile, pos, n float64, ctx string) {
	t.Helper()
	c := p.Seek(pos)
	var w Window
	p.WindowFrom(&w, &c, n)
	want := p.WindowLinear(pos, n)
	windowClose(t, w, want, ctx)
	cpi := p.CPIFrom(&c, n)
	if n >= 1 {
		if wantCPI := want.CPI(); math.Abs(cpi-wantCPI) > 1e-9*(1+math.Abs(wantCPI)) {
			t.Fatalf("%s: CPIFrom = %v, want %v", ctx, cpi, wantCPI)
		}
	}
	if got := p.CPIAt(pos, n); math.Float64bits(got) != math.Float64bits(cpi) {
		t.Fatalf("%s: CPIAt = %v, CPIFrom = %v", ctx, got, cpi)
	}
	again := p.WindowAt(pos, n)
	if again.Instructions != w.Instructions || again.Cycles != w.Cycles ||
		again.MemStall != w.MemStall || again.LLCAccesses != w.LLCAccesses {
		t.Fatalf("%s: WindowAt %+v differs from WindowFrom %+v", ctx, again, w)
	}
	for k := range w.SDC {
		if again.SDC[k] != w.SDC[k] {
			t.Fatalf("%s: WindowAt SDC[%d] = %v, WindowFrom %v", ctx, k, again.SDC[k], w.SDC[k])
		}
	}
}

// TestCursorBoundaries drives Seek, CPIFrom and WindowFrom at the
// points where a resolved start is easiest to get wrong: exact interval
// boundaries, one ulp either side of them and of the trace end, windows
// of exactly k trace lengths, and windows whose tails wrap past the
// trace end, on uniform and irregular profiles.
func TestCursorBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, intervals := range []int{1, 2, 7, 50} {
		for _, uniform := range []bool{true, false} {
			p := randomProfile(rng, intervals, 8, uniform)
			total := float64(p.TotalInstructions())
			var positions []float64
			var start float64
			for _, iv := range p.Intervals {
				positions = append(positions, start,
					math.Nextafter(start, math.Inf(-1)), math.Nextafter(start, math.Inf(1)))
				start += float64(iv.Instructions)
			}
			positions = append(positions, total, math.Nextafter(total, 0),
				math.Nextafter(total, math.Inf(1)), 2*total, -total, total-0.5)
			last := float64(p.Intervals[len(p.Intervals)-1].Instructions)
			sizes := []float64{
				1, 0.25, total / 3,
				total, 2 * total, 5 * total, // exactly k trace lengths
				math.Nextafter(total, 0), math.Nextafter(3*total, math.Inf(1)),
				last + 0.5, total - 0.5, // wrapped tails from the last interval
			}
			for _, pos := range positions {
				for _, n := range sizes {
					checkCursorQueries(t, p, pos, n, fmt.Sprintf(
						"intervals=%d uniform=%v pos=%v n=%v", intervals, uniform, pos, n))
				}
			}
		}
	}
}

// TestWindowNonFinite pins the window queries' answer outside the range
// they model: a start or length that is NaN, infinite or at least 2^53
// in magnitude (where float64 stops counting instructions exactly) gives
// an empty window and a CPI of 0 instead of a panic or a window at some
// other position; just inside that range they still answer.
func TestWindowNonFinite(t *testing.T) {
	p := testProfile()
	const limit = 1 << 53
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		pos, n float64
		empty  bool
	}{
		{nan, 100, true},
		{inf, 100, true},
		{-inf, 100, true},
		{limit, 100, true},
		{-limit, 100, true},
		{1e300, 100, true},
		{50, nan, true},
		{50, inf, true},
		{50, -inf, true},
		{50, limit, true},
		{50, 1e300, true},
		{nan, nan, true},
		{50, 0, true},
		{50, -1, true},
		{limit - 1, 100, false},
		{-(limit - 1), 100, false},
		{50, limit - 1, false},
		{math.SmallestNonzeroFloat64, math.SmallestNonzeroFloat64, false},
	} {
		ctx := fmt.Sprintf("pos=%v n=%v", tc.pos, tc.n)
		w := p.WindowAt(tc.pos, tc.n)
		c := p.Seek(tc.pos)
		var from Window
		p.WindowFrom(&from, &c, tc.n)
		cpi, cpiFrom := p.CPIAt(tc.pos, tc.n), p.CPIFrom(&c, tc.n)
		if !tc.empty {
			if !(w.Instructions > 0) || !finite(w.Cycles) || !finite(cpi) || cpi < 0 {
				t.Errorf("%s: want a finite window, got %+v with CPI %v", ctx, w, cpi)
			}
			continue
		}
		for _, got := range []Window{w, from} {
			if got.Instructions != 0 || got.Cycles != 0 || got.MemStall != 0 ||
				got.LLCAccesses != 0 || got.SDC.Ways() != 2 || got.SDC.Accesses() != 0 {
				t.Errorf("%s: want an empty 2-way window, got %+v", ctx, got)
			}
		}
		if cpi != 0 || cpiFrom != 0 {
			t.Errorf("%s: CPIAt = %v, CPIFrom = %v, want 0", ctx, cpi, cpiFrom)
		}
	}
}

func finite(x float64) bool { return x-x == 0 }

// FuzzWindow: no float64 start or length makes a window query panic,
// and every start and length WindowLinear can walk in reasonable time
// (finite, at most 64 trace lengths) gets its answer within the
// prefix-sum tolerance.
func FuzzWindow(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	profiles := []*Profile{
		randomProfile(rng, 50, 8, true),
		randomProfile(rng, 50, 8, false),
		randomProfile(rng, 3, 2, false),
	}
	for _, seed := range []struct{ pos, n float64 }{
		{0, 1}, {123.5, 4567.25}, {-1, 1e-300}, {math.NaN(), 1}, {1, math.NaN()},
		{math.Inf(1), 1}, {1, math.Inf(1)}, {math.Inf(-1), 1}, {1e300, 1e300},
		{1 << 53, 1}, {1, 1 << 53}, {-0.0, 5e-324},
	} {
		f.Add(uint8(0), seed.pos, seed.n)
		f.Add(uint8(1), seed.pos, seed.n)
	}
	f.Fuzz(func(t *testing.T, which uint8, pos, n float64) {
		p := profiles[int(which)%len(profiles)]
		w := p.WindowAt(pos, n)
		cpi := p.CPIAt(pos, n)
		total := float64(p.TotalInstructions())
		if !finite(pos) || !(n >= 0 && n <= 64*total) || math.Abs(pos) >= 1<<53 {
			return
		}
		want := p.WindowLinear(pos, n)
		windowClose(t, w, want, fmt.Sprintf("pos=%v n=%v", pos, n))
		if wantCPI := want.CPI(); n >= 1 && math.Abs(cpi-wantCPI) > 1e-9*(1+math.Abs(wantCPI)) {
			t.Fatalf("CPIAt(%v, %v) = %v, want %v", pos, n, cpi, wantCPI)
		}
	})
}
