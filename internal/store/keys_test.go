package store

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/store/codec"
)

// fmtRecordingIdentity and fmtProfileIdentity are the fmt renderings
// the store's content keys were first defined by. Every store written
// so far is keyed by them, so the strconv builders must reproduce them
// byte for byte.
func fmtRecordingIdentity(specHash uint64, cfg sim.Config) string {
	return fmt.Sprintf("recording|gen=%d|spec=%016x|n=%d|iv=%d|cpu=%+v|l1d=%+v|l2=%+v",
		sim.OutputGeneration, specHash, cfg.TraceLength, cfg.IntervalLength,
		cfg.CPU, cfg.Hierarchy.L1D, cfg.Hierarchy.L2)
}

func fmtProfileIdentity(specHash uint64, cfg sim.Config, opts sim.ProfileOptions) string {
	return fmt.Sprintf("profile|gen=%d|spec=%016x|n=%d|iv=%d|cpu=%+v|l1d=%+v|l2=%+v|llc=%+v|occ=%v|perfect=%v",
		sim.OutputGeneration, specHash, cfg.TraceLength, cfg.IntervalLength,
		cfg.CPU, cfg.Hierarchy.L1D, cfg.Hierarchy.L2, cfg.Hierarchy.LLC,
		cfg.MemBandwidthOccupancy, opts.PerfectLLC)
}

// TestKeysStable pins the content keys of mcf's artifacts at the
// default scale under every Table 2 configuration, with and without
// bandwidth occupancy and PerfectLLC. A changed key orphans every
// existing store and splits mixed-version fleets, so it must come with
// a codec.FormatVersion or sim.OutputGeneration bump, never silently.
func TestKeysStable(t *testing.T) {
	if codec.FormatVersion != 1 || sim.OutputGeneration != 1 {
		t.Fatalf("format version %d, output generation %d: re-pin the golden keys",
			codec.FormatVersion, sim.OutputGeneration)
	}
	spec := mustSpec(t, "mcf")
	llcs := cache.LLCConfigs()
	if got, want := RecordingKey(spec, sim.DefaultConfig(llcs[0])), "87e872ace217c5ded865c5764b18c95c"; got != want {
		t.Errorf("recording key = %s, want %s", got, want)
	}
	golden := []struct {
		llc     string
		occ     float64
		perfect bool
		key     string
	}{
		{"config#1", 0, false, "cb16e4dca63084336498b563bec29f43"},
		{"config#1", 0, true, "a7c37cd067fdce0e3361e1c7c2924fad"},
		{"config#1", 2.5, false, "b370a6716076e568fe0f8c2346390929"},
		{"config#1", 2.5, true, "93c66d9c8be0eeed7be27c776fdc0e7b"},
		{"config#2", 0, false, "aad805c6c9124b8cfb69ffe78ba93484"},
		{"config#2", 0, true, "417fce9848acffd9b31336c01758ca14"},
		{"config#2", 2.5, false, "94f280b1997086aadedab41bcad243fe"},
		{"config#2", 2.5, true, "61d145069c2f1be1ebc0a5bbaa07a4d0"},
		{"config#3", 0, false, "8bf36148c3bd74673ea1f42129307ffd"},
		{"config#3", 0, true, "1343ada7ed7f84da6a3f7111e779a681"},
		{"config#3", 2.5, false, "6f07548c23c269ec45b9f35da75bcb13"},
		{"config#3", 2.5, true, "a2c77ef1d25a94a7c32215b4f56a114f"},
		{"config#4", 0, false, "28f310c8fb77f9db0064bcf15764af47"},
		{"config#4", 0, true, "7495f60d359e4ad9f8346a7e39868094"},
		{"config#4", 2.5, false, "be0b79e54e7d759e7cad80f05db95300"},
		{"config#4", 2.5, true, "d952c901114228bf72dff98e18bd28f2"},
		{"config#5", 0, false, "23c74ecc828946badc59ef6c9f2a0039"},
		{"config#5", 0, true, "536c50b8eba29ac9aa5fcd288f947abf"},
		{"config#5", 2.5, false, "14a8a0661f3eeb6d7d20c44d8b39034c"},
		{"config#5", 2.5, true, "a18f0df41edbaad03e7075bebafa3a0f"},
		{"config#6", 0, false, "3eb1e1c3454de0b1644cbbe426c3c2cc"},
		{"config#6", 0, true, "b0dc9e2c081b6c9187d594881c6f76c5"},
		{"config#6", 2.5, false, "5325bbc9eb114608bc4673131903bfac"},
		{"config#6", 2.5, true, "963701a579b3a553d8632224ad26df1f"},
	}
	if len(golden) != 4*len(llcs) {
		t.Fatalf("%d golden keys for %d configs", len(golden), len(llcs))
	}
	for i, g := range golden {
		llc := llcs[i/4]
		if llc.Name != g.llc {
			t.Fatalf("golden row %d is %s, config list has %s", i, g.llc, llc.Name)
		}
		cfg := sim.DefaultConfig(llc)
		cfg.MemBandwidthOccupancy = g.occ
		if got := ProfileKey(spec, cfg, sim.ProfileOptions{PerfectLLC: g.perfect}); got != g.key {
			t.Errorf("%s occ=%v perfect=%v: key = %s, want %s", g.llc, g.occ, g.perfect, got, g.key)
		}
	}
}

// TestKeysMatchFmtIdentity checks the strconv identity builders against
// the fmt renderings over the Table 2 matrix plus values that stress
// float and integer formatting.
func TestKeysMatchFmtIdentity(t *testing.T) {
	var cfgs []sim.Config
	for _, llc := range cache.LLCConfigs() {
		for _, occ := range []float64{0, 2.5} {
			cfg := sim.DefaultConfig(llc)
			cfg.MemBandwidthOccupancy = occ
			cfgs = append(cfgs, cfg)
		}
	}
	odd := sim.DefaultConfig(cache.LLCConfigs()[2])
	odd.TraceLength, odd.IntervalLength = 1_000_000, 20_000
	odd.MemBandwidthOccupancy = 1e-7
	odd.CPU.OverlapFactor = 1.0 / 3
	odd.CPU.MemLatency = 1e21
	odd.CPU.HiddenLatency = math.Inf(1)
	odd.CPU.L2HitStall = math.NaN()
	odd.CPU.ROBWindow = -1
	odd.Hierarchy.L2.Name = "L2 {odd} name"
	odd.Hierarchy.LLC.LatencyCycles = -3
	cfgs = append(cfgs, odd)
	odd.MemBandwidthOccupancy = 123456789.125
	odd.CPU.HiddenLatency = math.Copysign(0, -1)
	cfgs = append(cfgs, odd)

	for _, h := range []uint64{0, 0xabc, codec.SpecHash(mustSpec(t, "mcf")), math.MaxUint64} {
		for i, cfg := range cfgs {
			if got, want := recordingKey(h, cfg), contentKey([]byte(fmtRecordingIdentity(h, cfg))); got != want {
				t.Errorf("cfg %d spec %x: recording key %s, fmt identity keys %s\n%s",
					i, h, got, want, fmtRecordingIdentity(h, cfg))
			}
			for _, perfect := range []bool{false, true} {
				opts := sim.ProfileOptions{PerfectLLC: perfect}
				if got, want := profileKey(h, cfg, opts), contentKey([]byte(fmtProfileIdentity(h, cfg, opts))); got != want {
					t.Errorf("cfg %d spec %x perfect=%v: profile key %s, fmt identity keys %s\n%s",
						i, h, perfect, got, want, fmtProfileIdentity(h, cfg, opts))
				}
			}
		}
	}
}
