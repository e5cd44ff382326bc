package sdc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndRecord(t *testing.T) {
	c := New(4)
	if c.Ways() != 4 || len(c) != 5 {
		t.Fatalf("New(4) shape wrong: %v", c)
	}
	c.Record(1)
	c.Record(4)
	c.Record(0) // miss
	c.Record(9) // out of range counts as miss
	if c[0] != 1 || c[3] != 1 || c[4] != 2 {
		t.Fatalf("counters = %v", c)
	}
	if c.Accesses() != 4 || c.Misses() != 2 || c.Hits() != 2 {
		t.Fatalf("acc=%v miss=%v hits=%v", c.Accesses(), c.Misses(), c.Hits())
	}
}

func TestNewPanicsOnBadWays(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	New(0)
}

func TestAddAndAddScaled(t *testing.T) {
	a := Counters{1, 2, 3}
	b := Counters{10, 20, 30}
	a.Add(b)
	if a[0] != 11 || a[1] != 22 || a[2] != 33 {
		t.Fatalf("Add = %v", a)
	}
	a.AddScaled(b, 0.5)
	if a[0] != 16 || a[1] != 32 || a[2] != 48 {
		t.Fatalf("AddScaled = %v", a)
	}
}

func TestAddPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Counters{1, 2}.Add(Counters{1, 2, 3})
}

func TestCloneIndependent(t *testing.T) {
	a := Counters{1, 2, 3}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestFold(t *testing.T) {
	// 4-way SDC: depths 1..4 hits = 10,20,30,40; misses = 5.
	c := Counters{10, 20, 30, 40, 5}
	f, err := c.Fold(2)
	if err != nil {
		t.Fatal(err)
	}
	want := Counters{10, 20, 75} // 30+40+5 become misses
	for i := range want {
		if f[i] != want[i] {
			t.Fatalf("Fold = %v, want %v", f, want)
		}
	}
	if f.Accesses() != c.Accesses() {
		t.Fatal("Fold must preserve total accesses")
	}
}

func TestFoldErrors(t *testing.T) {
	c := Counters{1, 2, 3}
	if _, err := c.Fold(0); err == nil {
		t.Fatal("fold to 0 ways should error")
	}
	if _, err := c.Fold(3); err == nil {
		t.Fatal("fold to more ways should error")
	}
}

func TestFoldIdentity(t *testing.T) {
	c := Counters{10, 20, 5}
	f, err := c.Fold(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range c {
		if f[i] != c[i] {
			t.Fatalf("identity fold changed counters: %v vs %v", f, c)
		}
	}
}

func TestMissesAtWays(t *testing.T) {
	c := Counters{10, 20, 30, 40, 5} // total 105
	if got := c.MissesAtWays(4); got != 5 {
		t.Fatalf("MissesAtWays(full) = %v, want 5", got)
	}
	if got := c.MissesAtWays(0); got != 105 {
		t.Fatalf("MissesAtWays(0) = %v, want all", got)
	}
	if got := c.MissesAtWays(2); got != 105-30 {
		t.Fatalf("MissesAtWays(2) = %v, want 75", got)
	}
	// Fractional: e=2.5 keeps depths 1,2 plus half of depth 3.
	if got := c.MissesAtWays(2.5); math.Abs(got-(105-30-15)) > 1e-12 {
		t.Fatalf("MissesAtWays(2.5) = %v, want 60", got)
	}
	// Above full associativity clamps.
	if got := c.MissesAtWays(10); got != 5 {
		t.Fatalf("MissesAtWays(10) = %v, want 5", got)
	}
}

func TestMissesAtWaysMatchesFold(t *testing.T) {
	c := Counters{7, 11, 13, 17, 3}
	for ways := 1; ways <= 4; ways++ {
		f, _ := c.Fold(ways)
		if got := c.MissesAtWays(float64(ways)); math.Abs(got-f.Misses()) > 1e-12 {
			t.Fatalf("MissesAtWays(%d) = %v, Fold misses = %v", ways, got, f.Misses())
		}
	}
}

func TestExtraMissesAtWays(t *testing.T) {
	c := Counters{10, 20, 30, 40, 5}
	if got := c.ExtraMissesAtWays(2); got != 70 {
		t.Fatalf("ExtraMissesAtWays(2) = %v, want 70", got)
	}
	if got := c.ExtraMissesAtWays(4); got != 0 {
		t.Fatalf("ExtraMissesAtWays(full) = %v, want 0", got)
	}
}

func TestValidate(t *testing.T) {
	if err := (Counters{1, 2, 3}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Counters{1}).Validate(); err == nil {
		t.Fatal("short SDC should fail")
	}
	if err := (Counters{1, -2, 3}).Validate(); err == nil {
		t.Fatal("negative counter should fail")
	}
	if err := (Counters{1, math.NaN(), 3}).Validate(); err == nil {
		t.Fatal("NaN counter should fail")
	}
	if err := (Counters{1, 2, math.Inf(1)}).Validate(); err == nil {
		t.Fatal("+Inf counter should fail")
	}
	if err := (Counters{math.Inf(-1), 2, 3}).Validate(); err == nil {
		t.Fatal("-Inf counter should fail")
	}
}

func TestMonitorBasic(t *testing.T) {
	m, err := NewMonitor(1, 4, 64) // fully-associative 4-entry
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(0)  // miss
	m.Observe(0)  // hit depth 1
	m.Observe(64) // miss
	m.Observe(0)  // hit depth 2
	c := m.Counters()
	if c[0] != 1 || c[1] != 1 || c.Misses() != 2 {
		t.Fatalf("counters = %v", c)
	}
}

func TestMonitorErrors(t *testing.T) {
	if _, err := NewMonitor(3, 4, 64); err == nil {
		t.Fatal("non-power-of-two sets should error")
	}
	if _, err := NewMonitor(4, 0, 64); err == nil {
		t.Fatal("zero ways should error")
	}
	if _, err := NewMonitor(4, 2, 48); err == nil {
		t.Fatal("non-power-of-two line size should error")
	}
}

func TestMonitorTakeCountersKeepsState(t *testing.T) {
	m, _ := NewMonitor(1, 2, 64)
	m.Observe(0)
	got := m.TakeCounters()
	if got.Misses() != 1 {
		t.Fatalf("first interval = %v", got)
	}
	if m.Counters().Accesses() != 0 {
		t.Fatal("TakeCounters should reset live counters")
	}
	m.Observe(0) // must still hit: tag state preserved across intervals
	if m.Counters().Misses() != 0 || m.Counters().Hits() != 1 {
		t.Fatalf("state lost: %v", m.Counters())
	}
}

// Property: folding a random SDC preserves total accesses and never
// decreases misses; MissesAtWays is monotonically non-increasing in e.
func TestFoldMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ways := 2 + rng.Intn(15)
		c := New(ways)
		for i := range c {
			c[i] = float64(rng.Intn(1000))
		}
		prev := -1.0
		for w := ways; w >= 1; w-- {
			fd, err := c.Fold(w)
			if err != nil {
				return false
			}
			if math.Abs(fd.Accesses()-c.Accesses()) > 1e-9 {
				return false
			}
			if prev >= 0 && fd.Misses() < prev {
				return false // fewer ways can't mean fewer misses
			}
			prev = fd.Misses()
		}
		// MissesAtWays monotone over a fine grid.
		last := math.Inf(1)
		for e := 0.0; e <= float64(ways); e += 0.25 {
			m := c.MissesAtWays(e)
			if m > last+1e-9 {
				return false
			}
			last = m
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Monitor's SDC, folded to a smaller associativity, equals
// the SDC a smaller monitor records on the same access stream (the LRU
// stack inclusion property, which Fold relies on).
func TestMonitorFoldMatchesSmallerMonitor(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		big, _ := NewMonitor(4, 8, 64)
		small, _ := NewMonitor(4, 4, 64)
		for i := 0; i < 4000; i++ {
			addr := uint64(rng.Intn(64)) * 64
			big.Observe(addr)
			small.Observe(addr)
		}
		folded, err := big.Counters().Fold(4)
		if err != nil {
			return false
		}
		for i := range folded {
			if math.Abs(folded[i]-small.Counters()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
