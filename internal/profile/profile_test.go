package profile

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/sdc"
)

func testMeta(ways int) Meta {
	return Meta{
		Benchmark:      "bench",
		TraceLength:    300,
		IntervalLength: 100,
		LLC: cache.Config{
			Name: "llc", SizeBytes: int64(ways) * 64 * 4, Ways: ways,
			LineSize: 64, LatencyCycles: 16,
		},
		CPU: cpu.DefaultParams(),
	}
}

// testProfile builds a 3-interval profile with distinct per-interval CPI.
func testProfile() *Profile {
	mk := func(instr int64, cyc, stall, acc float64, counters ...float64) Interval {
		return Interval{
			Instructions: instr, Cycles: cyc, MemStall: stall,
			LLCAccesses: acc, SDC: sdc.Counters(counters),
		}
	}
	return &Profile{
		Meta: testMeta(2),
		Intervals: []Interval{
			mk(100, 100, 10, 20, 10, 5, 5),   // CPI 1.0, misses 5
			mk(100, 200, 40, 30, 10, 10, 10), // CPI 2.0, misses 10
			mk(100, 150, 20, 25, 15, 5, 5),   // CPI 1.5, misses 5
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := testProfile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateErrors(t *testing.T) {
	mutations := []func(*Profile){
		func(p *Profile) { p.Intervals = nil },
		func(p *Profile) { p.Intervals[0].Instructions = 0 },
		func(p *Profile) { p.Intervals[0].Cycles = -1 },
		func(p *Profile) { p.Intervals[0].Cycles = math.NaN() },
		func(p *Profile) { p.Intervals[1].MemStall = math.Inf(1) },
		func(p *Profile) { p.Intervals[2].LLCAccesses = math.NaN() },
		func(p *Profile) { p.Intervals[2].LLCAccesses = math.Inf(-1) },
		func(p *Profile) { p.Intervals[1].SDC[0] = math.Inf(1) },
		func(p *Profile) { // each counter finite, their sum is not
			p.Intervals[0].Cycles = math.MaxFloat64
			p.Intervals[1].Cycles = math.MaxFloat64
		},
		func(p *Profile) { p.Intervals[0].SDC = sdc.Counters{1, 2, 3, 4} }, // wrong ways
		func(p *Profile) { p.Intervals[0].SDC[1] = -1 },
		func(p *Profile) { p.Meta.TraceLength = 999 },
	}
	for i, mut := range mutations {
		p := testProfile()
		mut(p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

func TestAggregates(t *testing.T) {
	p := testProfile()
	if p.TotalInstructions() != 300 {
		t.Fatalf("instrs = %d", p.TotalInstructions())
	}
	if p.TotalCycles() != 450 {
		t.Fatalf("cycles = %v", p.TotalCycles())
	}
	if p.CPI() != 1.5 {
		t.Fatalf("CPI = %v", p.CPI())
	}
	if math.Abs(p.MemCPI()-70.0/300) > 1e-12 {
		t.Fatalf("MemCPI = %v", p.MemCPI())
	}
	if p.LLCAccesses() != 75 {
		t.Fatalf("accesses = %v", p.LLCAccesses())
	}
	if p.LLCMisses() != 20 {
		t.Fatalf("misses = %v", p.LLCMisses())
	}
	if math.Abs(p.APKI()-250) > 1e-9 {
		t.Fatalf("APKI = %v", p.APKI())
	}
	if math.Abs(p.MPKI()-20.0/300*1000) > 1e-9 {
		t.Fatalf("MPKI = %v", p.MPKI())
	}
	if math.Abs(p.MemIntensity()-(70.0/300)/1.5) > 1e-12 {
		t.Fatalf("MemIntensity = %v", p.MemIntensity())
	}
}

// TestCPIUnvalidated: CPI reads the prefix index, which must still
// build for a profile that fails validation, such as one whose SDCs
// have the wrong associativity.
func TestCPIUnvalidated(t *testing.T) {
	p := testProfile()
	p.Intervals[0].SDC = sdc.Counters{1, 2, 3, 4}
	if err := p.Validate(); err == nil {
		t.Fatal("wrong-width SDC should fail validation")
	}
	if got := p.CPI(); got != 1.5 {
		t.Fatalf("CPI = %v, want 1.5", got)
	}
}

func TestIntervalAccessors(t *testing.T) {
	iv := testProfile().Intervals[1]
	if iv.CPI() != 2.0 {
		t.Fatalf("interval CPI = %v", iv.CPI())
	}
	if iv.MemCPI() != 0.4 {
		t.Fatalf("interval MemCPI = %v", iv.MemCPI())
	}
	if iv.LLCMisses() != 10 {
		t.Fatalf("interval misses = %v", iv.LLCMisses())
	}
	empty := Interval{}
	if empty.CPI() != 0 || empty.MemCPI() != 0 {
		t.Fatal("zero interval accessors should be 0")
	}
}

func TestWindowWholeTrace(t *testing.T) {
	p := testProfile()
	w := p.WindowAt(0, 300)
	if math.Abs(w.Instructions-300) > 1e-9 || math.Abs(w.Cycles-450) > 1e-9 {
		t.Fatalf("window = %+v", w)
	}
	if math.Abs(w.CPI()-1.5) > 1e-12 {
		t.Fatalf("window CPI = %v", w.CPI())
	}
	if math.Abs(w.LLCMisses()-20) > 1e-9 {
		t.Fatalf("window misses = %v", w.LLCMisses())
	}
}

func TestWindowPartialInterval(t *testing.T) {
	p := testProfile()
	// Second half of interval 0 plus first half of interval 1.
	w := p.WindowAt(50, 100)
	wantCycles := 0.5*100 + 0.5*200
	if math.Abs(w.Cycles-wantCycles) > 1e-9 {
		t.Fatalf("cycles = %v, want %v", w.Cycles, wantCycles)
	}
	if math.Abs(w.MemStall-(5+20)) > 1e-9 {
		t.Fatalf("mem stall = %v", w.MemStall)
	}
	if math.Abs(w.SDC.Misses()-(2.5+5)) > 1e-9 {
		t.Fatalf("window misses = %v", w.SDC.Misses())
	}
}

func TestWindowWrapsCircularly(t *testing.T) {
	p := testProfile()
	// Start in the last interval and wrap into the first.
	w := p.WindowAt(250, 100)
	wantCycles := 0.5*150 + 0.5*100
	if math.Abs(w.Cycles-wantCycles) > 1e-9 {
		t.Fatalf("cycles = %v, want %v", w.Cycles, wantCycles)
	}
}

func TestWindowPositionBeyondTrace(t *testing.T) {
	p := testProfile()
	// pos 350 == pos 50 after wrapping.
	w1 := p.WindowAt(350, 100)
	w2 := p.WindowAt(50, 100)
	if math.Abs(w1.Cycles-w2.Cycles) > 1e-9 {
		t.Fatalf("wrapped window differs: %v vs %v", w1.Cycles, w2.Cycles)
	}
}

func TestWindowMultipleLaps(t *testing.T) {
	p := testProfile()
	// A window of two full trace lengths doubles everything.
	w := p.WindowAt(0, 600)
	if math.Abs(w.Cycles-900) > 1e-6 {
		t.Fatalf("two-lap cycles = %v, want 900", w.Cycles)
	}
	if math.Abs(w.SDC.Accesses()-150) > 1e-6 {
		t.Fatalf("two-lap accesses = %v, want 150", w.SDC.Accesses())
	}
}

func TestWindowZeroLength(t *testing.T) {
	p := testProfile()
	w := p.WindowAt(10, 0)
	if w.Instructions != 0 || w.CPI() != 0 || w.MemCPI() != 0 {
		t.Fatalf("zero window = %+v", w)
	}
}

func TestDeriveAssociativityFoldsSDC(t *testing.T) {
	p := testProfile()
	d, err := p.DeriveAssociativity(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta.LLC.Ways != 1 || !d.Meta.Derived {
		t.Fatalf("derived meta = %+v", d.Meta)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Interval 0: SDC {10,5,5} -> folded {10, 10}: misses 5 -> 10.
	if d.Intervals[0].LLCMisses() != 10 {
		t.Fatalf("derived misses = %v, want 10", d.Intervals[0].LLCMisses())
	}
	// Extra 5 misses at the interval's measured penalty 10/5 = 2 cycles.
	if math.Abs(d.Intervals[0].Cycles-(100+5*2)) > 1e-9 {
		t.Fatalf("derived cycles = %v, want 110", d.Intervals[0].Cycles)
	}
	if math.Abs(d.Intervals[0].MemStall-(10+5*2)) > 1e-9 {
		t.Fatalf("derived mem stall = %v", d.Intervals[0].MemStall)
	}
	// Size shrinks proportionally to ways.
	if d.Meta.LLC.SizeBytes != p.Meta.LLC.SizeBytes/2 {
		t.Fatalf("derived size = %d", d.Meta.LLC.SizeBytes)
	}
}

func TestDeriveAssociativityLatencyDelta(t *testing.T) {
	p := testProfile()
	d, err := p.DeriveAssociativity(2, 20) // same ways, +4 latency
	if err != nil {
		t.Fatal(err)
	}
	// No fold change; cycles grow by deltaHitStall * accesses = 4 * 20.
	if math.Abs(d.Intervals[0].Cycles-(100+4*20)) > 1e-9 {
		t.Fatalf("cycles = %v, want 180", d.Intervals[0].Cycles)
	}
}

func TestDeriveAssociativityRejectsUpscale(t *testing.T) {
	p := testProfile()
	if _, err := p.DeriveAssociativity(4, 16); err == nil {
		t.Fatal("deriving more ways should error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := testProfile()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Meta.Benchmark != p.Meta.Benchmark || len(q.Intervals) != len(p.Intervals) {
		t.Fatalf("round trip lost data: %+v", q.Meta)
	}
	if math.Abs(q.CPI()-p.CPI()) > 1e-12 {
		t.Fatal("round trip changed CPI")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString(`{"meta":{},"intervals":[]}`)); err == nil {
		t.Fatal("invalid profile should be rejected")
	}
	if _, err := ReadJSON(bytes.NewBufferString(`not json`)); err == nil {
		t.Fatal("garbage should be rejected")
	}
}

func TestSet(t *testing.T) {
	p := testProfile()
	p2 := testProfile()
	p2.Meta.Benchmark = "other"
	s := NewSet(p, p2)
	if got, err := s.Get("bench"); err != nil || got != p {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := s.Get("missing"); err == nil {
		t.Fatal("missing profile should error")
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "bench" || names[1] != "other" {
		t.Fatalf("Names = %v", names)
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	s := NewSet(testProfile())
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadSetJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Get("bench"); err != nil {
		t.Fatal(err)
	}
}

func TestReadSetJSONRejectsInvalidEntries(t *testing.T) {
	p := testProfile()
	p.Intervals[0].Instructions = -1
	var buf bytes.Buffer
	if err := (&Set{Profiles: map[string]*Profile{"x": p}}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSetJSON(&buf); err == nil {
		t.Fatal("invalid set entry should be rejected")
	}
}

func TestModFloat(t *testing.T) {
	cases := []struct{ x, m, want float64 }{
		{5, 3, 2}, {-1, 3, 2}, {6, 3, 0}, {0, 3, 0}, {7.5, 3, 1.5},
	}
	for _, c := range cases {
		if got := modFloat(c.x, c.m); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("modFloat(%v,%v) = %v, want %v", c.x, c.m, got, c.want)
		}
	}
	if modFloat(5, 0) != 0 {
		t.Fatal("modFloat with zero modulus should be 0")
	}
}

// Window additivity: window(pos, a+b) == window(pos, a) + window(pos+a, b).
func TestWindowAdditivityProperty(t *testing.T) {
	p := testProfile()
	for _, tc := range []struct{ pos, a, b float64 }{
		{0, 100, 50}, {30, 70, 130}, {250, 40, 300}, {10.5, 33.25, 77.75},
	} {
		whole := p.WindowAt(tc.pos, tc.a+tc.b)
		w1 := p.WindowAt(tc.pos, tc.a)
		w2 := p.WindowAt(tc.pos+tc.a, tc.b)
		if math.Abs(whole.Cycles-(w1.Cycles+w2.Cycles)) > 1e-6 {
			t.Fatalf("cycles not additive at %+v: %v vs %v", tc, whole.Cycles, w1.Cycles+w2.Cycles)
		}
		if math.Abs(whole.SDC.Accesses()-(w1.SDC.Accesses()+w2.SDC.Accesses())) > 1e-6 {
			t.Fatalf("SDC accesses not additive at %+v", tc)
		}
	}
}

// TestWindowAtBoundaryRounding reproduces the float-rounding edge that
// once paniced WindowAt: positions that land exactly on (or within one
// ulp of) the trace end after many wrapped laps must wrap cleanly.
func TestWindowAtBoundaryRounding(t *testing.T) {
	p := testProfile()
	total := float64(p.TotalInstructions())
	hostile := []float64{
		total,
		total * 16.349999999999999,
		math.Nextafter(total, 0),
		math.Nextafter(total, math.Inf(1)),
		total*5 - 1e-12,
		0x1.f2c54769f58adp+23, // the position from the original panic
	}
	for _, pos := range hostile {
		w := p.WindowAt(pos, 150)
		if math.Abs(w.Instructions-150) > 1e-6 {
			t.Errorf("pos %v: window covered %v instructions, want 150", pos, w.Instructions)
		}
		if w.Cycles <= 0 {
			t.Errorf("pos %v: no cycles accumulated", pos)
		}
	}
}

// TestWindowAtManyLapsStaysExact: accumulating across dozens of wrapped
// laps must not lose instructions to rounding.
func TestWindowAtManyLapsStaysExact(t *testing.T) {
	p := testProfile()
	total := float64(p.TotalInstructions())
	w := p.WindowAt(0.3*total, 40*total)
	if math.Abs(w.Instructions-40*total) > 1e-3 {
		t.Fatalf("covered %v of %v instructions", w.Instructions, 40*total)
	}
	if math.Abs(w.Cycles-40*p.TotalCycles()) > 1 {
		t.Fatalf("cycles %v, want %v", w.Cycles, 40*p.TotalCycles())
	}
}
