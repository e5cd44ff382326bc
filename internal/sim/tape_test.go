package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/mppmerr"
	"repro/internal/trace"
)

// tapeConfig keeps the tape oracles fast enough for -race: 1/100 of
// the paper's trace length, where cores still restart their traces
// several times.
func tapeConfig(llc cache.Config) Config {
	cfg := DefaultConfig(llc)
	cfg.TraceLength = 100_000
	cfg.IntervalLength = 10_000
	return cfg
}

// sameResult reports the first field where two multi-core results
// differ, comparing floats by their bits.
func sameResult(got, want *MulticoreResult) error {
	if len(got.Benchmarks) != len(want.Benchmarks) {
		return fmt.Errorf("%d cores, want %d", len(got.Benchmarks), len(want.Benchmarks))
	}
	bits := math.Float64bits
	for i := range want.Benchmarks {
		switch {
		case got.Benchmarks[i] != want.Benchmarks[i]:
			return fmt.Errorf("core %d runs %s, want %s", i, got.Benchmarks[i], want.Benchmarks[i])
		case bits(got.CPI[i]) != bits(want.CPI[i]):
			return fmt.Errorf("core %d CPI %v, want %v", i, got.CPI[i], want.CPI[i])
		case bits(got.Cycles[i]) != bits(want.Cycles[i]):
			return fmt.Errorf("core %d cycles %v, want %v", i, got.Cycles[i], want.Cycles[i])
		case got.Instructions[i] != want.Instructions[i]:
			return fmt.Errorf("core %d instructions %d, want %d", i, got.Instructions[i], want.Instructions[i])
		case got.LLCAccesses[i] != want.LLCAccesses[i]:
			return fmt.Errorf("core %d LLC accesses %d, want %d", i, got.LLCAccesses[i], want.LLCAccesses[i])
		case got.LLCMisses[i] != want.LLCMisses[i]:
			return fmt.Errorf("core %d LLC misses %d, want %d", i, got.LLCMisses[i], want.LLCMisses[i])
		}
	}
	if got.LLCStats != want.LLCStats {
		return fmt.Errorf("LLC stats %+v, want %+v", got.LLCStats, want.LLCStats)
	}
	if bits(got.TotalCycles) != bits(want.TotalCycles) {
		return fmt.Errorf("total cycles %v, want %v", got.TotalCycles, want.TotalCycles)
	}
	return nil
}

// suiteTapes records one tape per suite benchmark at cfg's frontend.
func suiteTapes(t testing.TB, cfg Config) map[string]*Tape {
	t.Helper()
	tapes := make(map[string]*Tape)
	for _, spec := range trace.Suite() {
		tapes[spec.Name] = specTape(t, spec, cfg)
	}
	return tapes
}

func specTape(t testing.TB, spec trace.Spec, cfg Config) *Tape {
	t.Helper()
	rec, err := RecordSpec(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(spec, cfg.TraceLength)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTape(rec, rd)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// tapeMixes returns seeded 4-core mixes that together cover every suite
// benchmark, one 16-core mix, and a mix with a benchmark in two slots.
func tapeMixes() [][]string {
	rng := rand.New(rand.NewSource(13))
	names := trace.SuiteNames()
	perm := rng.Perm(len(names))
	var mixes [][]string
	for i := 0; i < len(perm); i += 4 {
		var mix []string
		for j := i; j < i+4; j++ {
			mix = append(mix, names[perm[j%len(perm)]])
		}
		mixes = append(mixes, mix)
	}
	var wide []string
	for _, k := range rng.Perm(len(names))[:16] {
		wide = append(wide, names[k])
	}
	return append(mixes, wide, []string{"gamess", "mcf", "gamess", "lbm"})
}

func mixTapes(tapes map[string]*Tape, mix []string) []*Tape {
	out := make([]*Tape, len(mix))
	for i, n := range mix {
		out[i] = tapes[n]
	}
	return out
}

func liveRun(t testing.TB, mix []string, cfg Config) *MulticoreResult {
	t.Helper()
	specs := make([]trace.Spec, len(mix))
	for i, n := range mix {
		s, err := trace.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	res, err := RunMulticore(context.Background(), specs, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTapeMatchesLive is the differential oracle for tapes: every mix
// on every Table 2 configuration, with and without the bandwidth model,
// gives the same MulticoreResult from shared tapes as from the live
// frontend, float bit for float bit. The tapes are shared across all
// runs, so the first runs extend them and later runs read passes others
// added.
func TestTapeMatchesLive(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide mixes x Table 2 differential is not short")
	}
	llcs := cache.LLCConfigs()
	tapes := suiteTapes(t, tapeConfig(llcs[0]))
	t.Run("mixes", func(t *testing.T) {
		for _, mix := range tapeMixes() {
			t.Run(strings.Join(mix, ","), func(t *testing.T) {
				t.Parallel()
				for _, llc := range llcs {
					for _, occ := range []float64{0, 6} {
						cfg := tapeConfig(llc)
						cfg.MemBandwidthOccupancy = occ
						want := liveRun(t, mix, cfg)
						got, err := RunMulticoreTapes(context.Background(), mixTapes(tapes, mix), cfg)
						if err != nil {
							t.Fatal(err)
						}
						if err := sameResult(got, want); err != nil {
							t.Errorf("%s, bandwidth %v: %v", llc.Name, occ, err)
						}
					}
				}
			})
		}
	})
	deepest := 0
	for _, tp := range tapes {
		deepest = max(deepest, len(tp.passes))
	}
	if deepest < 3 {
		t.Errorf("no core ran past its second pass (deepest tape %d passes): the oracle misses the restart path", deepest)
	}
}

// loopRefs sizes the hand-made traces past tapeConfig's interval.
const loopRefs = 5_000

// smallLoop is a trace whose lines all fit in L1: its first pass
// reaches the LLC with compulsory misses only, and every later pass
// never does.
func smallLoop(t *testing.T, name string) *trace.Recorded {
	t.Helper()
	refs := make([]trace.Ref, loopRefs)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i%64) * trace.LineSize, Gap: 3, GapCycles: 1.25}
	}
	rec, err := trace.NewRecorded(name, refs)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestTapeDormantCore covers a core that goes dormant: after its first
// pass it never reaches the LLC again, and the tape frontend must stop
// feeding it exactly where the live frontend does.
func TestTapeDormantCore(t *testing.T) {
	cfg := tapeConfig(cache.LLCConfigs()[0])
	ctx := context.Background()
	spec := mustSpec(t, "lbm")
	rd, err := trace.NewReader(spec, cfg.TraceLength)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunMulticoreSources(ctx, []trace.Source{smallLoop(t, "loop"), rd}, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	loop := smallLoop(t, "loop")
	rec, err := Record(ctx, loop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTape(rec, loop)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMulticoreTapes(ctx, []*Tape{tp, specTape(t, spec, cfg)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameResult(got, want); err != nil {
		t.Fatal(err)
	}
	if n := len(tp.passes[1].addrs); n != 0 {
		t.Fatalf("loop's second pass reaches the LLC %d times, want 0", n)
	}
}

// pollCtx reports cancellation from its (n+1)-th Err call on, so a test
// can cancel at an exact poll of the simulator.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

func cancelAfter(n int64) *pollCtx {
	c := &pollCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTapeCancelledExtension cancels tape extensions at every poll, in
// the re-warm passes and in the recorded pass, and asserts that nothing
// partial survives: the tape keeps only whole passes, drops its
// continuation, and later simulations on it stay bit-identical.
func TestTapeCancelledExtension(t *testing.T) {
	cfg := tapeConfig(cache.LLCConfigs()[0])
	spec := mustSpec(t, "mcf")
	ref := specTape(t, spec, cfg)
	for k := 1; k <= 2; k++ {
		if _, err := ref.pass(context.Background(), k); err != nil {
			t.Fatal(err)
		}
	}

	tp := specTape(t, spec, cfg)
	for k := 1; k <= 2; k++ {
		for n := int64(0); ; n++ {
			// Drop the continuation, so pass k is preceded by a re-warm
			// of the k passes already on the tape.
			tp.cont = nil
			s, err := tp.pass(cancelAfter(n), k)
			if err == nil {
				if err := sameStream(s, ref.passes[k]); err != nil {
					t.Fatalf("pass %d after %d cancelled attempts: %v", k+1, n, err)
				}
				if n < int64(k) {
					t.Fatalf("pass %d extended within %d polls: the extension does not poll ctx", k+1, n)
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("pass %d cancelled at poll %d: %v", k+1, n, err)
			}
			if len(tp.passes) != k || tp.cont != nil {
				t.Fatalf("pass %d cancelled at poll %d left %d passes and continuation %v", k+1, n, len(tp.passes), tp.cont != nil)
			}
		}
	}

	mix := []string{"mcf", "povray", "mcf", "gamess"}
	tapes := map[string]*Tape{"mcf": tp, "povray": specTape(t, mustSpec(t, "povray"), cfg),
		"gamess": specTape(t, mustSpec(t, "gamess"), cfg)}
	want := liveRun(t, mix, cfg)
	for n := int64(0); ; n++ {
		got, err := RunMulticoreTapes(cancelAfter(n), mixTapes(tapes, mix), cfg)
		if errors.Is(err, context.Canceled) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sameResult(got, want); err != nil {
			t.Fatalf("after %d cancelled runs: %v", n, err)
		}
		break
	}
}

func sameStream(got, want *stream) error {
	if len(got.addrs) != len(want.addrs) || got.endInstr != want.endInstr ||
		math.Float64bits(got.endBase) != math.Float64bits(want.endBase) {
		return fmt.Errorf("%d accesses ending at (%d, %v), want %d at (%d, %v)",
			len(got.addrs), got.endInstr, got.endBase, len(want.addrs), want.endInstr, want.endBase)
	}
	for i := range want.addrs {
		if got.addrs[i] != want.addrs[i] || got.flags[i] != want.flags[i] || got.instr[i] != want.instr[i] ||
			math.Float64bits(got.base[i]) != math.Float64bits(want.base[i]) {
			return fmt.Errorf("access %d differs", i)
		}
	}
	return nil
}

// TestTapeCancelAbortsSimulation: with every pass a simulation needs
// already on its tapes, no extension polls ctx, and the event loop
// alone must notice the cancellation.
func TestTapeCancelAbortsSimulation(t *testing.T) {
	cfg := tapeConfig(cache.LLCConfigs()[0])
	mix := []string{"mcf", "lbm", "soplex", "gamess"}
	tapes := make(map[string]*Tape)
	for _, n := range mix {
		tapes[n] = specTape(t, mustSpec(t, n), cfg)
	}
	if _, err := RunMulticoreTapes(context.Background(), mixTapes(tapes, mix), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := RunMulticoreTapes(cancelAfter(0), mixTapes(tapes, mix), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled simulation returned %v, want context.Canceled", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMulticoreTapes(ctx, mixTapes(tapes, mix), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("simulation under a cancelled context returned %v", err)
	}
}

// TestTapeRewarmMismatch: a trace that does not replay the recording
// (same name and length, different references) is caught by the
// re-warm pass before it can feed a simulation.
func TestTapeRewarmMismatch(t *testing.T) {
	cfg := tapeConfig(cache.LLCConfigs()[0])
	ctx := context.Background()
	rec, err := Record(ctx, smallLoop(t, "loop"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]trace.Ref, loopRefs)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i) * trace.LineSize, Gap: 3, GapCycles: 1.25}
	}
	other, err := trace.NewRecorded("loop", refs)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := NewTape(rec, other)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMulticoreTapes(ctx, []*Tape{tp}, cfg)
	if !errors.Is(err, mppmerr.ErrBadConfig) {
		t.Fatalf("mismatched tape simulated to %+v, err %v; want ErrBadConfig", res, err)
	}
	if len(tp.passes) != 1 || tp.cont != nil {
		t.Fatalf("mismatched re-warm left %d passes, continuation %v", len(tp.passes), tp.cont != nil)
	}
}

// TestNewTapeRejects: a tape needs the recording's own trace and
// addresses that leave room for the core tag.
func TestNewTapeRejects(t *testing.T) {
	cfg := tapeConfig(cache.LLCConfigs()[0])
	rec, err := Record(context.Background(), smallLoop(t, "loop"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTape(rec, smallLoop(t, "other")); !errors.Is(err, mppmerr.ErrBadConfig) {
		t.Fatalf("tape over another trace: %v", err)
	}
	d := rec.Data()
	d.Addrs = append([]uint64(nil), d.Addrs...)
	d.Addrs[0] = 1 << coreAddrShift
	high, err := RecordingFromData(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTape(high, smallLoop(t, "loop")); !errors.Is(err, mppmerr.ErrBadConfig) {
		t.Fatalf("tape with a tag-bit address: %v", err)
	}
	other := cfg
	other.CPU.MemLatency++
	tp, err := NewTape(rec, smallLoop(t, "loop"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMulticoreTapes(context.Background(), []*Tape{tp}, other); !errors.Is(err, mppmerr.ErrBadConfig) {
		t.Fatalf("tape under other CPU parameters: %v", err)
	}
}

// TestTapeConcurrentSimulations runs simulations that share fresh tapes
// from several goroutines at once, so extensions race with readers;
// run it under -race.
func TestTapeConcurrentSimulations(t *testing.T) {
	cfg := tapeConfig(cache.LLCConfigs()[0])
	mixes := [][]string{
		{"mcf", "gamess", "lbm", "povray"},
		{"gamess", "povray", "mcf", "mcf"},
		{"lbm", "gamess", "gamess", "soplex"},
		{"povray", "soplex", "lbm", "mcf"},
	}
	want := make([]*MulticoreResult, len(mixes))
	for i, mix := range mixes {
		want[i] = liveRun(t, mix, cfg)
	}
	tapes := make(map[string]*Tape)
	for _, n := range []string{"mcf", "gamess", "lbm", "povray", "soplex"} {
		tapes[n] = specTape(t, mustSpec(t, n), cfg)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range mixes {
				i := (g + j) % len(mixes)
				got, err := RunMulticoreTapes(context.Background(), mixTapes(tapes, mixes[i]), cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if err := sameResult(got, want[i]); err != nil {
					t.Errorf("%v: %v", mixes[i], err)
				}
			}
		}()
	}
	wg.Wait()
}
