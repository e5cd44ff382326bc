// Package cache implements the set-associative LRU caches that form the
// reproduction's memory hierarchy: private L1 data caches and L2 caches
// per core, and a shared last-level cache (LLC). The LLC additionally
// reports the LRU stack depth of every access, which the profiling layer
// turns into the paper's stack distance counters (SDCs).
//
// The caches model tag state only (no data), use true LRU replacement,
// write-back write-allocate semantics, and track dirty state so writeback
// counts are observable. Timing is owned by package cpu; latency values
// live in Config purely as configuration data.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/mppmerr"
)

// Config describes one cache.
type Config struct {
	Name          string // for error messages and reports
	SizeBytes     int64
	Ways          int
	LineSize      int64
	LatencyCycles int // access latency; used by the timing model
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int64 {
	return c.SizeBytes / (c.LineSize * int64(c.Ways))
}

// Lines returns the total number of lines in the cache.
func (c Config) Lines() int64 { return c.SizeBytes / c.LineSize }

// Validate reports whether the configuration is usable: positive sizes,
// a power-of-two line size of at least 4 bytes, a power-of-two set
// count, and at least one way. The cache indexes by the line size's
// bit width, so any other line size would silently model a different
// one.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cache %s: non-positive size: %w", c.Name, mppmerr.ErrBadConfig)
	}
	if c.LineSize < 4 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two of at least 4 bytes: %w",
			c.Name, c.LineSize, mppmerr.ErrBadConfig)
	}
	if c.Ways < 1 {
		return fmt.Errorf("cache %s: ways %d < 1: %w", c.Name, c.Ways, mppmerr.ErrBadConfig)
	}
	if c.SizeBytes%(c.LineSize*int64(c.Ways)) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*ways: %w", c.Name, c.SizeBytes, mppmerr.ErrBadConfig)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two: %w", c.Name, sets, mppmerr.ErrBadConfig)
	}
	return nil
}

// Stats accumulates access counters for one cache.
type Stats struct {
	Accesses   int64
	Hits       int64
	Misses     int64
	Writebacks int64 // dirty evictions
}

// MissRate returns Misses/Accesses, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative LRU cache over line addresses.
//
// Each set is a run of ways entries in recency order: index 0 is the
// most recently used way, index ways-1 the least recently used. An entry
// packs a line's tag with its state flags, tag | validBit | dirtyBit, so
// a lookup compares one word per way and an LRU move shifts one word per
// way it passes (an MRU hit moves nothing). The shift is a plain loop:
// for a few words it beats a memmove call. The tag is the line address
// (addr >> log2(line size)); Validate's line size of at least 4 bytes
// leaves the top two bits free for the flags.
type Cache struct {
	cfg      Config
	setMask  uint64
	setShift uint
	ways     int
	lines    []uint64 // sets*ways packed entries, recency-ordered per set
	stats    Stats    // Accesses is derived in Stats, not counted
}

const (
	validBit = uint64(1) << 63
	dirtyBit = uint64(1) << 62
	tagMask  = dirtyBit - 1
)

// New builds a cache from cfg. It panics on an invalid configuration to
// keep the hot path free of error returns; configurations are validated
// once at construction.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:      cfg,
		setMask:  uint64(sets - 1),
		setShift: uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		ways:     cfg.Ways,
		lines:    make([]uint64, sets*int64(cfg.Ways)),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.Accesses = s.Hits + s.Misses
	return s
}

// ResetStats clears the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates every line and clears statistics.
func (c *Cache) Flush() {
	clear(c.lines)
	c.stats = Stats{}
}

// set returns the recency-ordered entries of the set holding tag.
func (c *Cache) set(tag uint64) []uint64 {
	base := int(tag&c.setMask) * c.ways
	return c.lines[base : base+c.ways : base+c.ways]
}

// Access performs a read or write access for the line containing addr.
// It returns whether the access hit and, for hits, the 1-based LRU stack
// depth the line was found at (1 = MRU). On a miss depth is 0 and the
// line is installed at the MRU position, evicting the LRU way; the
// returned writeback flag reports whether the eviction was dirty.
func (c *Cache) Access(addr uint64, write bool) (hit bool, depth int, writeback bool) {
	tag := addr >> c.setShift
	set := c.set(tag)
	want := tag | validBit

	for i, e := range set {
		if e&^dirtyBit == want {
			// Hit at depth i+1: move to front; at depth 1 nothing moves.
			depth = i + 1
			if write {
				e |= dirtyBit
			}
			for ; i > 0; i-- {
				set[i] = set[i-1]
			}
			set[0] = e
			c.stats.Hits++
			return true, depth, false
		}
	}

	// Miss: evict the LRU way (last slot), shift everything down, install
	// at MRU. Invalid entries are zero, so only a valid line can be dirty.
	c.stats.Misses++
	if set[len(set)-1]&dirtyBit != 0 {
		writeback = true
		c.stats.Writebacks++
	}
	for i := len(set) - 1; i > 0; i-- {
		set[i] = set[i-1]
	}
	if write {
		want |= dirtyBit
	}
	set[0] = want
	return false, 0, writeback
}

// Probe reports whether the line containing addr is present, without
// updating LRU state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.setShift
	want := tag | validBit
	for _, e := range c.set(tag) {
		if e&^dirtyBit == want {
			return true
		}
	}
	return false
}

// OccupancyByTagBits returns, for each distinct value of the top tagBits
// bits of stored line tags, the number of valid lines. The multi-core
// simulator tags each core's address space in the top bits, so this
// reports per-core LLC occupancy — useful for contention analysis.
func (c *Cache) OccupancyByTagBits(shift uint) map[uint64]int64 {
	out := make(map[uint64]int64)
	for _, e := range c.lines {
		if e&validBit != 0 {
			out[((e&tagMask)<<c.setShift)>>shift]++
		}
	}
	return out
}
