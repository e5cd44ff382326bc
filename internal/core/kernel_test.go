package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/contention"
	"repro/internal/profile"
)

// resultsClose compares two model results with a tight relative
// tolerance: the kernel path reorders floating-point accumulation
// (prefix sums versus linear walks), so low-bit drift is expected but
// anything beyond ~1e-9 relative would indicate a real divergence.
func resultsClose(t *testing.T, got, want *Result, ctx string) {
	t.Helper()
	close := func(a, b float64, what string) {
		t.Helper()
		if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
			t.Fatalf("%s: %s = %.15g, want %.15g (diff %g)", ctx, what, a, b, a-b)
		}
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d, want %d", ctx, got.Iterations, want.Iterations)
	}
	if len(got.Slowdown) != len(want.Slowdown) {
		t.Fatalf("%s: %d slots, want %d", ctx, len(got.Slowdown), len(want.Slowdown))
	}
	for p := range want.Slowdown {
		close(got.Slowdown[p], want.Slowdown[p], fmt.Sprintf("Slowdown[%d]", p))
		close(got.SingleCPI[p], want.SingleCPI[p], fmt.Sprintf("SingleCPI[%d]", p))
		close(got.MultiCPI[p], want.MultiCPI[p], fmt.Sprintf("MultiCPI[%d]", p))
	}
	close(got.STP, want.STP, "STP")
	close(got.ANTT, want.ANTT, "ANTT")
	if len(got.History) != len(want.History) {
		t.Fatalf("%s: history %d iterations, want %d", ctx, len(got.History), len(want.History))
	}
	for i := range want.History {
		for p := range want.History[i] {
			close(got.History[i][p], want.History[i][p], fmt.Sprintf("History[%d][%d]", i, p))
		}
	}
}

// referenceMixes are the suite mixes the kernel oracles run: memory-bound,
// compute-bound and mixed 4-program mixes, a co-run pair and a solo
// program.
var referenceMixes = [][]string{
	{"gamess", "lbm", "milc", "libquantum"},
	{"povray", "namd", "hmmer", "calculix"},
	{"mcf", "lbm", "gamess", "gobmk"},
	{"soplex", "soplex"},
	{"gamess"},
}

// referenceOptions is the ablation option matrix the kernel oracles run
// every mix under: each model switch alone, all of them together, a
// custom chunk and target, and every contention model.
func referenceOptions() []Options {
	opts := []Options{
		{},
		{PaperDenominator: true},
		{ReportAverage: true},
		{BandwidthOccupancy: 4},
		{PaperDenominator: true, ReportAverage: true, BandwidthOccupancy: 4},
		{Smoothing: 0.9, RecordHistory: true},
		{ChunkL: 100_000, TargetMultiple: 3},
	}
	for _, m := range contention.Models() {
		opts = append(opts, Options{Contention: m})
	}
	return opts
}

// TestKernelMatchesReference is the tentpole's differential test:
// Kernel.Run (prefix-sum windows, bound contention evaluator, pooled
// scratch) must reproduce the preserved pre-refactor implementation
// across the full ablation option matrix.
func TestKernelMatchesReference(t *testing.T) {
	set := getSet(t)
	optionMatrix := referenceOptions()

	k := NewKernel() // one kernel across every case: scratch reuse must not leak state
	for mi, mixNames := range referenceMixes {
		profs := make([]*profile.Profile, len(mixNames))
		for i, name := range mixNames {
			p, err := set.Get(name)
			if err != nil {
				t.Fatal(err)
			}
			profs[i] = p
		}
		for oi, opts := range optionMatrix {
			ctx := fmt.Sprintf("mix %d opts %d", mi, oi)
			model, err := New(profs, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := model.runReference()
			if err != nil {
				t.Fatal(err)
			}
			got, err := k.Run(profs, opts)
			if err != nil {
				t.Fatal(err)
			}
			resultsClose(t, got, want, ctx+" (Kernel.Run)")

			// Model.Run is itself rewritten over the kernel; cover it too.
			got2, err := model.Run()
			if err != nil {
				t.Fatal(err)
			}
			resultsClose(t, got2, want, ctx+" (Model.Run)")
		}
	}

	// Heterogeneous frequency scaling rides through the same kernel.
	profs := []*profile.Profile{}
	for _, name := range []string{"gamess", "lbm", "mcf", "povray"} {
		p, err := set.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		profs = append(profs, p)
	}
	opts := Options{FrequencyScale: []float64{1, 0.5, 2, 1.25}}
	model, err := New(profs, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := model.runReference()
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Run(profs, opts)
	if err != nil {
		t.Fatal(err)
	}
	resultsClose(t, got, want, "frequency-scaled mix")
}

// TestKernelErrorsMatchModel: validation and failure behaviour must be
// identical between the one-shot and kernel paths.
func TestKernelErrorsMatchModel(t *testing.T) {
	set := getSet(t)
	p, err := set.Get("gamess")
	if err != nil {
		t.Fatal(err)
	}
	k := NewKernel()
	cases := []struct {
		name  string
		profs []*profile.Profile
		opts  Options
	}{
		{"no profiles", nil, Options{}},
		{"nil profile", []*profile.Profile{nil}, Options{}},
		{"bad smoothing", []*profile.Profile{p}, Options{Smoothing: 1}},
		{"negative bandwidth", []*profile.Profile{p}, Options{BandwidthOccupancy: -1}},
		{"bad frequency scale", []*profile.Profile{p}, Options{FrequencyScale: []float64{0}}},
		{"NaN frequency scale", []*profile.Profile{p}, Options{FrequencyScale: []float64{math.NaN()}}},
		{"infinite frequency scale", []*profile.Profile{p}, Options{FrequencyScale: []float64{math.Inf(1)}}},
		{"scale count mismatch", []*profile.Profile{p}, Options{FrequencyScale: []float64{1, 1}}},
	}
	for _, tc := range cases {
		if _, err := k.Run(tc.profs, tc.opts); err == nil {
			t.Errorf("%s: Kernel.Run should fail", tc.name)
		}
	}
}

// TestMaxSlowdownEmpty: an empty result must report ("", 0), not
// ("", -Inf), so CLI and stress output never prints a sentinel.
func TestMaxSlowdownEmpty(t *testing.T) {
	var r Result
	name, slow := r.MaxSlowdown()
	if name != "" || slow != 0 {
		t.Fatalf("empty MaxSlowdown = (%q, %v), want (\"\", 0)", name, slow)
	}
	if math.IsInf(slow, -1) {
		t.Fatal("-Inf leaked from empty result")
	}
}

// TestKernelRunAllocs locks in the zero-steady-state-allocation
// property: after warm-up, a Kernel.Run allocates only the Result with
// its names and one float array, plus the per-run contention bind,
// never the Model or per-iteration scratch.
func TestKernelRunAllocs(t *testing.T) {
	set := getSet(t)
	names := []string{"gamess", "lbm", "milc", "libquantum"}
	profs := make([]*profile.Profile, len(names))
	for i, n := range names {
		p, err := set.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		profs[i] = p
	}
	k := NewKernel()
	if _, err := k.Run(profs, Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := k.Run(profs, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	// Expected steady state: the bound evaluator and its scratch (2),
	// the Result (1), its Benchmarks (1) and the one array behind
	// SingleCPI, Slowdown and MultiCPI (1).
	const maxAllocs = 5
	if allocs > maxAllocs {
		t.Fatalf("steady-state Kernel.Run allocates %v times per run, want <= %d",
			allocs, maxAllocs)
	}
}

// BenchmarkKernelRun measures one steady-state model evaluation on a
// 4-program mix (20-interval profiles at the core-test scale) — the
// per-job unit of BenchmarkSweep without engine overhead. Run with
// -benchmem: allocs/op is the kernel's whole steady-state footprint.
func BenchmarkKernelRun(b *testing.B) {
	set := getSet(b)
	names := []string{"gamess", "lbm", "milc", "libquantum"}
	profs := make([]*profile.Profile, len(names))
	for i, n := range names {
		p, err := set.Get(n)
		if err != nil {
			b.Fatal(err)
		}
		profs[i] = p
	}
	k := NewKernel()
	if _, err := k.Run(profs, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := k.Run(profs, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelRunReference benchmarks the preserved pre-refactor
// implementation on the same workload, so `go test -bench 'KernelRun|Reference'`
// prints the before/after of the zero-allocation refactor side by side.
func BenchmarkModelRunReference(b *testing.B) {
	set := getSet(b)
	names := []string{"gamess", "lbm", "milc", "libquantum"}
	profs := make([]*profile.Profile, len(names))
	for i, n := range names {
		p, err := set.Get(n)
		if err != nil {
			b.Fatal(err)
		}
		profs[i] = p
	}
	m, err := New(profs, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.runReference(); err != nil {
			b.Fatal(err)
		}
	}
}
