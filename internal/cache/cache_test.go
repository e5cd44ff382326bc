package cache

import (
	"errors"
	"maps"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mppmerr"
)

func tinyConfig() Config {
	// 4 sets x 2 ways x 64B lines = 512B.
	return Config{Name: "tiny", SizeBytes: 512, Ways: 2, LineSize: 64, LatencyCycles: 1}
}

func TestConfigSetsLines(t *testing.T) {
	c := Config{SizeBytes: 512 * 1024, Ways: 8, LineSize: 64}
	if c.Sets() != 1024 {
		t.Fatalf("Sets = %d, want 1024", c.Sets())
	}
	if c.Lines() != 8192 {
		t.Fatalf("Lines = %d, want 8192", c.Lines())
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, Ways: 1, LineSize: 64},
		{SizeBytes: 512, Ways: 0, LineSize: 64},
		{SizeBytes: 100, Ways: 1, LineSize: 64},    // not divisible
		{SizeBytes: 64 * 3, Ways: 1, LineSize: 64}, // 3 sets, not power of two
		{SizeBytes: 48 * 8, Ways: 1, LineSize: 48}, // 8 sets, but 48B lines would index as 16B
		{SizeBytes: 96 * 4, Ways: 2, LineSize: 96}, // 2 sets, 96B lines
		{SizeBytes: 2 * 8, Ways: 1, LineSize: 2},   // power of two below 4B
		{SizeBytes: 8, Ways: 8, LineSize: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); !errors.Is(err, mppmerr.ErrBadConfig) {
			t.Errorf("config %d: Validate = %v, want ErrBadConfig", i, err)
		}
	}
	for _, line := range []int64{4, 8, 16, 32, 64, 128, 4096} {
		c := Config{Name: "ok", SizeBytes: line * 16, Ways: 4, LineSize: line}
		if err := c.Validate(); err != nil {
			t.Errorf("line size %d: %v", line, err)
		}
	}
	if err := tinyConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New should panic on invalid config")
		}
	}()
	New(Config{SizeBytes: 100, Ways: 1, LineSize: 64})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(tinyConfig())
	hit, depth, _ := c.Access(0, false)
	if hit || depth != 0 {
		t.Fatalf("cold access hit=%v depth=%d", hit, depth)
	}
	hit, depth, _ = c.Access(0, false)
	if !hit || depth != 1 {
		t.Fatalf("second access hit=%v depth=%d, want hit at depth 1", hit, depth)
	}
}

func TestSameLineDifferentOffsetHits(t *testing.T) {
	c := New(tinyConfig())
	c.Access(0, false)
	hit, _, _ := c.Access(63, false) // same 64B line
	if !hit {
		t.Fatal("access within same line should hit")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(tinyConfig()) // 2 ways, 4 sets; set = (addr>>6)&3
	// Three lines mapping to set 0: addresses 0, 4*64=256... set stride is 4*64=256.
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.Access(a, false) // set0: [a]
	c.Access(b, false) // set0: [b a]
	c.Access(a, false) // set0: [a b]  (a refreshed)
	c.Access(d, false) // evicts LRU = b -> [d a]
	if hit, _, _ := c.Access(b, false); hit {
		t.Fatal("b should have been evicted (it was LRU)")
	}
	// That access reinstalled b, evicting a's set LRU... verify a was LRU after d:
	// after d: [d a]; access b evicts a -> [b d].
	if hit, _, _ := c.Access(d, false); !hit {
		t.Fatal("d should still be resident")
	}
}

func TestHitDepthIsLRUStackPosition(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 64 * 4, Ways: 4, LineSize: 64} // 1 set, 4 ways
	c := New(cfg)
	addrs := []uint64{0, 64, 128, 192}
	for _, a := range addrs {
		c.Access(a, false)
	}
	// Recency order now: 192,128,64,0. Depth of 0 is 4, of 192 is 1.
	if _, depth, _ := c.Access(0, false); depth != 4 {
		t.Fatalf("depth of LRU line = %d, want 4", depth)
	}
	// Now order: 0,192,128,64. Depth of 192 is 2.
	if _, depth, _ := c.Access(192, false); depth != 2 {
		t.Fatalf("depth = %d, want 2", depth)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 64 * 2, Ways: 2, LineSize: 64} // 1 set, 2 ways
	c := New(cfg)
	c.Access(0, true)                // dirty
	c.Access(64, false)              // clean
	_, _, wb := c.Access(128, false) // evicts LRU = line 0 (dirty)
	if !wb {
		t.Fatal("evicting dirty line should report writeback")
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
	_, _, wb = c.Access(192, false) // evicts line 64 (clean)
	if wb {
		t.Fatal("evicting clean line should not report writeback")
	}
}

func TestDirtyBitFollowsLineOnHit(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 64 * 2, Ways: 2, LineSize: 64}
	c := New(cfg)
	c.Access(0, true) // line 0 dirty, MRU
	c.Access(64, false)
	c.Access(0, false) // hit on dirty line; must stay dirty
	c.Access(64, false)
	_, _, wb := c.Access(128, false) // evicts line 0
	if !wb {
		t.Fatal("line 0 should still be dirty after read hit")
	}
}

func TestStatsAccounting(t *testing.T) {
	c := New(tinyConfig())
	c.Access(0, false)
	c.Access(0, false)
	c.Access(64, false)
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 1 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MissRate() != 2.0/3.0 {
		t.Fatalf("miss rate = %v", s.MissRate())
	}
	c.ResetStats()
	if c.Stats().Accesses != 0 {
		t.Fatal("ResetStats did not clear")
	}
	if hit, _, _ := c.Access(0, false); !hit {
		t.Fatal("ResetStats must not flush contents")
	}
}

func TestMissRateEmpty(t *testing.T) {
	if (Stats{}).MissRate() != 0 {
		t.Fatal("empty miss rate should be 0")
	}
}

func TestFlush(t *testing.T) {
	c := New(tinyConfig())
	c.Access(0, true)
	c.Flush()
	if c.Stats().Accesses != 0 {
		t.Fatal("Flush should clear stats")
	}
	hit, _, wb := c.Access(0, false)
	if hit {
		t.Fatal("Flush should invalidate contents")
	}
	if wb {
		t.Fatal("no writeback expected after flush")
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 64 * 2, Ways: 2, LineSize: 64}
	c := New(cfg)
	c.Access(0, false)
	c.Access(64, false) // order: 64, 0
	if !c.Probe(0) || !c.Probe(64) || c.Probe(128) {
		t.Fatal("Probe presence wrong")
	}
	acc := c.Stats().Accesses
	c.Probe(0)
	if c.Stats().Accesses != acc {
		t.Fatal("Probe must not count as access")
	}
	// LRU order must be unchanged: a new line should evict 0, not 64.
	c.Access(128, false)
	if c.Probe(0) {
		t.Fatal("Probe must not refresh LRU position")
	}
	if !c.Probe(64) {
		t.Fatal("64 should survive")
	}
}

func TestOccupancyByTagBits(t *testing.T) {
	cfg := Config{Name: "t", SizeBytes: 64 * 8, Ways: 2, LineSize: 64} // 4 sets
	c := New(cfg)
	const coreShift = 32
	c.Access(0<<coreShift|0, false)
	c.Access(1<<coreShift|0, false)
	c.Access(1<<coreShift|64, false)
	occ := c.OccupancyByTagBits(coreShift)
	if occ[0] != 1 || occ[1] != 2 {
		t.Fatalf("occupancy = %v", occ)
	}
}

// Property: hits+misses == accesses, and a hit depth is within [1, ways].
func TestAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(Config{Name: "p", SizeBytes: 64 * 64, Ways: 4, LineSize: 64})
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.Intn(256)) * 64
			hit, depth, _ := c.Access(addr, rng.Intn(2) == 0)
			if hit && (depth < 1 || depth > 4) {
				return false
			}
			if !hit && depth != 0 {
				return false
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a cache never reports a hit for a line it has not seen, and
// always hits a line accessed more recently than `ways` distinct
// conflicting lines.
func TestLRUGuaranteeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const ways = 4
		c := New(Config{Name: "p", SizeBytes: 64 * ways, Ways: ways, LineSize: 64}) // 1 set
		// Reference model: recency list of line addresses.
		var recency []uint64
		for i := 0; i < 3000; i++ {
			addr := uint64(rng.Intn(12)) * 64
			hit, depth, _ := c.Access(addr, false)
			// Model lookup.
			pos := -1
			for j, a := range recency {
				if a == addr {
					pos = j
					break
				}
			}
			wantHit := pos >= 0 && pos < ways
			if hit != wantHit {
				return false
			}
			if hit && depth != pos+1 {
				return false
			}
			// Model update: move to front, cap at ways.
			if pos >= 0 {
				recency = append(recency[:pos], recency[pos+1:]...)
			}
			recency = append([]uint64{addr}, recency...)
			if len(recency) > ways {
				recency = recency[:ways]
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := BaselineHierarchy(LLCConfigs()[0])
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	p := NewPrivate(h)
	// Cold access misses both private levels.
	if lvl := p.Access(0, false); lvl != 0 {
		t.Fatalf("cold access level = %v, want 0 (needs LLC)", lvl)
	}
	// Immediately after, it hits L1.
	if lvl := p.Access(0, false); lvl != L1Hit {
		t.Fatalf("level = %v, want L1Hit", lvl)
	}
}

func TestHierarchyL2HitAfterL1Eviction(t *testing.T) {
	h := BaselineHierarchy(LLCConfigs()[0])
	p := NewPrivate(h)
	p.Access(0, false)
	// Evict line 0 from L1 (32KB, 8 ways, 64 sets -> set stride 4KB) by
	// touching 8 more lines in its set; L2 (256KB, 8 ways, 512 sets ->
	// set stride 32KB) maps them to different sets, so line 0 survives L2.
	for i := 1; i <= 8; i++ {
		p.Access(uint64(i)*4096, false)
	}
	if lvl := p.Access(0, false); lvl != L2Hit {
		t.Fatalf("level = %v, want L2Hit", lvl)
	}
}

func TestHierarchyFlush(t *testing.T) {
	p := NewPrivate(BaselineHierarchy(LLCConfigs()[0]))
	p.Access(0, false)
	p.Flush()
	if lvl := p.Access(0, false); lvl != 0 {
		t.Fatal("flush should clear both levels")
	}
}

func TestLLCConfigsMatchTable2(t *testing.T) {
	cfgs := LLCConfigs()
	if len(cfgs) != 6 {
		t.Fatalf("want 6 LLC configs, got %d", len(cfgs))
	}
	wantSize := []int64{512 << 10, 512 << 10, 1 << 20, 1 << 20, 2 << 20, 2 << 20}
	wantWays := []int{8, 16, 8, 16, 8, 16}
	wantLat := []int{16, 20, 18, 22, 20, 24}
	for i, c := range cfgs {
		if c.SizeBytes != wantSize[i] || c.Ways != wantWays[i] || c.LatencyCycles != wantLat[i] {
			t.Errorf("config#%d = %+v", i+1, c)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("config#%d invalid: %v", i+1, err)
		}
	}
}

func TestLLCConfigByName(t *testing.T) {
	c, err := LLCConfigByName("config#4")
	if err != nil || c.SizeBytes != 1<<20 || c.Ways != 16 {
		t.Fatalf("config#4 = %+v, %v", c, err)
	}
	if _, err := LLCConfigByName("bogus"); err == nil {
		t.Fatal("unknown name should error")
	}
}

func TestLevelString(t *testing.T) {
	for _, l := range []Level{L1Hit, L2Hit, LLCHit, LLCMiss, Level(42)} {
		if l.String() == "" {
			t.Fatal("empty level string")
		}
	}
}

func TestHierarchyValidateBadMemLatency(t *testing.T) {
	h := BaselineHierarchy(LLCConfigs()[0])
	h.MemLatencyCycles = 0
	if err := h.Validate(); err == nil {
		t.Fatal("want error for zero memory latency")
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{Name: "b", SizeBytes: 512 * 1024, Ways: 8, LineSize: 64})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<16)) * 64
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095], false)
	}
}

// refCache is the cache model before entries were packed into one word:
// separate tag, valid and dirty arrays per way, with Access, Probe,
// OccupancyByTagBits and Flush kept verbatim. It is the differential
// oracle for Cache (TestCacheMatchesReference).
type refCache struct {
	setMask  uint64
	setShift uint
	ways     int
	tags     []uint64 // sets*ways, recency-ordered per set
	valid    []bool
	dirty    []bool
	stats    Stats
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.Sets()
	return &refCache{
		setMask:  uint64(sets - 1),
		setShift: uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		ways:     cfg.Ways,
		tags:     make([]uint64, sets*int64(cfg.Ways)),
		valid:    make([]bool, sets*int64(cfg.Ways)),
		dirty:    make([]bool, sets*int64(cfg.Ways)),
	}
}

func (c *refCache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
		c.dirty[i] = false
	}
	c.stats = Stats{}
}

func (c *refCache) setIndex(addr uint64) uint64 {
	return (addr >> c.setShift) & c.setMask
}

func (c *refCache) Access(addr uint64, write bool) (hit bool, depth int, writeback bool) {
	set := c.setIndex(addr)
	base := int(set) * c.ways
	tag := addr >> c.setShift
	c.stats.Accesses++

	for i := 0; i < c.ways; i++ {
		if c.valid[base+i] && c.tags[base+i] == tag {
			// Hit at depth i+1: move to front.
			d := c.dirty[base+i] || write
			copy(c.tags[base+1:base+i+1], c.tags[base:base+i])
			copy(c.dirty[base+1:base+i+1], c.dirty[base:base+i])
			c.tags[base] = tag
			c.dirty[base] = d
			c.stats.Hits++
			return true, i + 1, false
		}
	}

	// Miss: evict LRU way (last slot), shift everything down, install at MRU.
	c.stats.Misses++
	last := base + c.ways - 1
	if c.valid[last] && c.dirty[last] {
		writeback = true
		c.stats.Writebacks++
	}
	copy(c.tags[base+1:base+c.ways], c.tags[base:base+c.ways-1])
	copy(c.dirty[base+1:base+c.ways], c.dirty[base:base+c.ways-1])
	// The valid slice only ever transitions false->true; shifting needs
	// the same treatment so partially-filled sets stay correct.
	copy(c.valid[base+1:base+c.ways], c.valid[base:base+c.ways-1])
	c.tags[base] = tag
	c.valid[base] = true
	c.dirty[base] = write
	return false, 0, writeback
}

func (c *refCache) Probe(addr uint64) bool {
	set := c.setIndex(addr)
	base := int(set) * c.ways
	tag := addr >> c.setShift
	for i := 0; i < c.ways; i++ {
		if c.valid[base+i] && c.tags[base+i] == tag {
			return true
		}
	}
	return false
}

func (c *refCache) OccupancyByTagBits(shift uint) map[uint64]int64 {
	out := make(map[uint64]int64)
	for i, v := range c.valid {
		if v {
			out[(c.tags[i]<<c.setShift)>>shift]++
		}
	}
	return out
}

// oracleStream generates a seeded access stream for cfg that exercises
// every LRU stack depth: most accesses go to a handful of hot sets, each
// with ways+ways/2+1 candidate lines (so a random pick hits at any depth
// or misses; one hot set is set 0 and includes line 0), mixed with
// re-touches of the previous access, cold lines anywhere in the 64-bit
// address space (top bits set included) and writes at a 30% rate.
func oracleStream(rng *rand.Rand, cfg Config, n int) (addrs []uint64, writes []bool) {
	sets := uint64(cfg.Sets())
	line := uint64(cfg.LineSize)
	hot := make([][]uint64, 4)
	for i := range hot {
		set := rng.Uint64() % sets
		cands := make([]uint64, cfg.Ways+cfg.Ways/2+1)
		for j := range cands {
			// A random tag over the full address width above the set
			// bits (so about half the candidates have the top bit set),
			// at a random offset within the line.
			hi := rng.Uint64() >> (bits.TrailingZeros64(line) + bits.TrailingZeros64(sets))
			cands[j] = (hi*sets+set)*line + rng.Uint64()%line
		}
		if i == 0 {
			// Line 0 has tag 0, the bit pattern of an empty way.
			cands[0] = rng.Uint64() % line
			for j := 1; j < len(cands); j++ {
				cands[j] -= set * line
			}
		}
		hot[i] = cands
	}
	addrs = make([]uint64, n)
	writes = make([]bool, n)
	for i := range addrs {
		switch r := rng.Intn(100); {
		case r < 75:
			cands := hot[rng.Intn(len(hot))]
			addrs[i] = cands[rng.Intn(len(cands))]
		case r < 85 && i > 0:
			addrs[i] = addrs[i-1]
		case r < 92:
			addrs[i] = rng.Uint64() | 1<<63
		default:
			addrs[i] = rng.Uint64()
		}
		writes[i] = rng.Intn(10) < 3
	}
	return addrs, writes
}

// TestCacheMatchesReference is the packed cache's differential oracle:
// over the L1, L2 and all six Table 2 LLC geometries, a seeded
// randomized stream must produce the same (hit, depth, writeback) on
// every access as refCache, the same Probe answers, and the same final
// Stats and OccupancyByTagBits, before and after a Flush.
func TestCacheMatchesReference(t *testing.T) {
	h := BaselineHierarchy(LLCConfigs()[0])
	geoms := append([]Config{h.L1D, h.L2}, LLCConfigs()...)
	for gi, cfg := range geoms {
		t.Run(cfg.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(gi) + 1))
			got, want := New(cfg), newRefCache(cfg)
			seen := make([]int64, cfg.Ways+1) // hits per depth; [0] = misses
			var wbs int64
			for round := 0; round < 2; round++ {
				addrs, writes := oracleStream(rng, cfg, 40_000)
				for i, a := range addrs {
					gh, gd, gw := got.Access(a, writes[i])
					wh, wd, ww := want.Access(a, writes[i])
					if gh != wh || gd != wd || gw != ww {
						t.Fatalf("round %d access %d (%#x, write=%v) = (%v, %d, %v), want (%v, %d, %v)",
							round, i, a, writes[i], gh, gd, gw, wh, wd, ww)
					}
					seen[gd]++
					if gw {
						wbs++
					}
					if i%97 == 0 {
						p := addrs[rng.Intn(i+1)]
						if got.Probe(p) != want.Probe(p) {
							t.Fatalf("round %d: Probe(%#x) = %v, want %v", round, p, got.Probe(p), want.Probe(p))
						}
					}
				}
				if got.Stats() != want.stats {
					t.Fatalf("round %d: Stats = %+v, want %+v", round, got.Stats(), want.stats)
				}
				for _, shift := range []uint{0, 20, 44, 58, 63} {
					if g, w := got.OccupancyByTagBits(shift), want.OccupancyByTagBits(shift); !maps.Equal(g, w) {
						t.Fatalf("round %d: OccupancyByTagBits(%d) = %v, want %v", round, shift, g, w)
					}
				}
				got.Flush()
				want.Flush()
				if got.Stats() != (Stats{}) || len(got.OccupancyByTagBits(0)) != 0 {
					t.Fatalf("round %d: Flush left state behind", round)
				}
			}
			for d, n := range seen {
				if n == 0 {
					t.Errorf("stream never produced depth %d (0 = miss); oracle coverage is incomplete", d)
				}
			}
			if wbs == 0 {
				t.Error("stream never produced a dirty writeback")
			}
		})
	}
}
