package mppm

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"
)

// Shared quick-scale system/profiles for the facade tests.
var (
	facadeOnce sync.Once
	facadeSys  *System
	facadeSet  *ProfileSet
	facadeErr  error
)

func quickSystem(t *testing.T) (*System, *ProfileSet) {
	t.Helper()
	facadeOnce.Do(func() {
		facadeSys, facadeErr = NewSystemScaled(DefaultLLC(), 1_000_000, 50_000)
		if facadeErr != nil {
			return
		}
		facadeSet, facadeErr = facadeSys.ProfileAll(Benchmarks())
	})
	if facadeErr != nil {
		t.Fatal(facadeErr)
	}
	return facadeSys, facadeSet
}

func TestBenchmarksSuite(t *testing.T) {
	if len(Benchmarks()) != 29 {
		t.Fatalf("suite = %d benchmarks, want 29", len(Benchmarks()))
	}
	if len(BenchmarkNames()) != 29 {
		t.Fatal("names mismatch")
	}
	if _, err := BenchmarkByName("gamess"); err != nil {
		t.Fatal(err)
	}
	if _, err := BenchmarkByName("nope"); err == nil {
		t.Fatal("unknown benchmark should error")
	}
}

func TestLLCConfigAccessors(t *testing.T) {
	if len(LLCConfigs()) != 6 {
		t.Fatal("want 6 LLC configs")
	}
	if DefaultLLC().Name != "config#1" {
		t.Fatalf("default LLC = %s", DefaultLLC().Name)
	}
	c, err := LLCConfigByName("config#3")
	if err != nil || c.SizeBytes != 1<<20 {
		t.Fatalf("config#3 = %+v, %v", c, err)
	}
}

func TestContentionModelAccessors(t *testing.T) {
	if len(ContentionModels()) < 3 {
		t.Fatal("want at least 3 contention models")
	}
	m, err := ContentionModelByName("FOA")
	if err != nil || m.Name() != "FOA" {
		t.Fatalf("FOA lookup = %v, %v", m, err)
	}
}

func TestNewSystemScaledValidates(t *testing.T) {
	if _, err := NewSystemScaled(DefaultLLC(), 0, 0); err == nil {
		t.Fatal("invalid scale should error")
	}
}

func TestSystemAccessors(t *testing.T) {
	sys := NewSystem(DefaultLLC())
	if sys.LLC().Name != "config#1" {
		t.Fatal("LLC accessor wrong")
	}
	if sys.TraceLength() != 10_000_000 {
		t.Fatalf("default trace length = %d", sys.TraceLength())
	}
}

func TestPredictAndSimulateAgree(t *testing.T) {
	sys, set := quickSystem(t)
	mix := Mix{"gamess", "lbm", "soplex", "povray"}
	res, err := sys.Eval(context.Background(),
		NewRequest(KindCompare, []Mix{mix}, WithProfiles(set)))
	if err != nil {
		t.Fatal(err)
	}
	sc := &res.Scenarios[0]
	if sc.Err != nil {
		t.Fatal(sc.Err)
	}
	if math.Abs(sc.STPError()) > 0.15 {
		t.Errorf("STP error %.1f%%, want within 15%% at quick scale", sc.STPError()*100)
	}
	if math.Abs(sc.ANTTError()) > 0.15 {
		t.Errorf("ANTT error %.1f%%", sc.ANTTError()*100)
	}
	if sc.Measurement.STP <= 0 || sc.Measurement.STP > 4 {
		t.Fatalf("measured STP = %v", sc.Measurement.STP)
	}
	for i := range mix {
		if sc.Measurement.Slowdown[i] < 0.999 {
			t.Errorf("%s measured slowdown %v < 1", mix[i], sc.Measurement.Slowdown[i])
		}
	}
}

func TestSimulateWithoutProfiles(t *testing.T) {
	sys, _ := quickSystem(t)
	res, err := sys.Eval(context.Background(),
		NewRequest(KindSimulate, []Mix{{"povray", "namd"}}))
	if err != nil {
		t.Fatal(err)
	}
	sc := &res.Scenarios[0]
	if sc.Err != nil {
		t.Fatal(sc.Err)
	}
	if m := sc.Measurement; m.STP < 1.8 || m.STP > 2.0+1e-9 {
		t.Fatalf("compute pair STP = %v, want ~2", m.STP)
	}
}

func TestPredictManyConfidence(t *testing.T) {
	sys, set := quickSystem(t)
	mixes, err := RandomMixes(12, 4, 99)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Eval(context.Background(),
		NewRequest(KindPredict, mixes, WithProfiles(set)))
	if err != nil {
		t.Fatal(err)
	}
	preds, err := res.Predictions()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := res.Confidence()
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 12 || rep.Mixes != 12 {
		t.Fatalf("preds = %d, report mixes = %d", len(preds), rep.Mixes)
	}
	if rep.STP.HalfWidth <= 0 || rep.ANTT.HalfWidth <= 0 {
		t.Fatal("confidence interval missing")
	}
	if rep.STP.Lo() > rep.STP.Hi() {
		t.Fatal("inverted interval")
	}
	// The slice form over the same predictions is the same report.
	if fromPreds, err := Confidence(preds); err != nil || *fromPreds != *rep {
		t.Fatalf("Confidence(preds) = %+v, %v; Result.Confidence = %+v", fromPreds, err, rep)
	}
	if _, err := sys.Eval(context.Background(),
		NewRequest(KindPredict, nil, WithProfiles(set))); err == nil {
		t.Fatal("empty mixes should error")
	}
}

func TestNumMixesMatchesPaper(t *testing.T) {
	n, err := NumMixes(29, 4)
	if err != nil || n != 35960 {
		t.Fatalf("NumMixes(29,4) = %d, %v", n, err)
	}
}

func TestRandomMixesDeterministic(t *testing.T) {
	a, err := RandomMixes(5, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := RandomMixes(5, 4, 7)
	for i := range a {
		if a[i].Key() != b[i].Key() {
			t.Fatal("not deterministic")
		}
	}
}

func TestStressSearchFindsCacheSensitiveMixes(t *testing.T) {
	sys, set := quickSystem(t)
	mixes, err := RandomMixes(40, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Eval(context.Background(),
		NewRequest(KindPredict, mixes, WithProfiles(set), WithTopK(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 5 {
		t.Fatalf("got %d stress scenarios", len(res.Scenarios))
	}
	for i := range res.Scenarios {
		if res.Scenarios[i].Err != nil {
			t.Fatal(res.Scenarios[i].Err)
		}
		if i > 0 && res.Scenarios[i].STP() < res.Scenarios[i-1].STP() {
			t.Fatal("stress scenarios not sorted worst-first")
		}
	}
	name, slow := res.Scenarios[0].Prediction.MaxSlowdown()
	if slow < 1 || name == "" {
		t.Fatalf("missing worst-program diagnostics: %s/%v", name, slow)
	}
	if _, err := sys.Eval(context.Background(),
		NewRequest(KindPredict, mixes, WithTopK(-1))); err == nil {
		t.Fatal("negative TopK should error")
	}
}

func TestPredictWithOptionsSwapsContention(t *testing.T) {
	sys, set := quickSystem(t)
	mixes := []Mix{{"gamess", "lbm", "milc", "libquantum"}}
	m, err := ContentionModelByName("equal-partition")
	if err != nil {
		t.Fatal(err)
	}
	a, err := sys.Eval(context.Background(), NewRequest(KindPredict, mixes,
		WithProfiles(set), WithOptions(ModelOptions{Contention: m})))
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Eval(context.Background(), NewRequest(KindPredict, mixes,
		WithProfiles(set)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Scenarios[0].STP() == b.Scenarios[0].STP() {
		t.Fatal("different contention models should give different STP on a contended mix")
	}
}

func TestClassifySplitsSuite(t *testing.T) {
	_, set := quickSystem(t)
	classes := Classify(set, DefaultMemIntensityThreshold)
	if len(classes) != 29 {
		t.Fatalf("classified %d benchmarks", len(classes))
	}
	var mem, comp int
	for _, c := range classes {
		if c == Memory {
			mem++
		} else {
			comp++
		}
	}
	if mem == 0 || comp == 0 {
		t.Fatalf("degenerate classification: %d MEM, %d COMP", mem, comp)
	}
	if classes["lbm"] != Memory {
		t.Error("lbm should be memory-intensive")
	}
	if classes["povray"] != Compute {
		t.Error("povray should be compute-intensive")
	}
}

func TestExportImportTraceRoundTrip(t *testing.T) {
	sys, _ := quickSystem(t)
	b, err := BenchmarkByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportTrace(&buf, b, 100_000); err != nil {
		t.Fatal(err)
	}
	src, err := ImportTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "hmmer" || src.Instructions() != 100_000 {
		t.Fatalf("imported trace: %s/%d", src.Name(), src.Instructions())
	}
	p, err := sys.ProfileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.CPI() <= 0 {
		t.Fatal("profile from imported trace empty")
	}
}

func TestSimulateSources(t *testing.T) {
	sys, _ := quickSystem(t)
	var srcs []TraceSource
	for _, n := range []string{"povray", "namd"} {
		b, _ := BenchmarkByName(n)
		var buf bytes.Buffer
		if err := ExportTrace(&buf, b, 200_000); err != nil {
			t.Fatal(err)
		}
		src, err := ImportTrace(&buf)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, src)
	}
	m, err := sys.SimulateSources(srcs)
	if err != nil {
		t.Fatal(err)
	}
	if m.STP < 1.8 || m.STP > 2.0+1e-9 {
		t.Fatalf("STP = %v, want ~2 for compute pair", m.STP)
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	sys, set := quickSystem(t)
	mixes, err := RandomMixes(6, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Eval(context.Background(), NewRequest(KindPredict, mixes))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := res.Predictions()
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(mixes) {
		t.Fatalf("%d results for %d mixes", len(batch), len(mixes))
	}
	for i, mix := range mixes {
		one, err := sys.Eval(context.Background(),
			NewRequest(KindPredict, []Mix{mix}, WithProfiles(set)))
		if err != nil {
			t.Fatal(err)
		}
		want := one.Scenarios[0].Prediction
		if batch[i].STP != want.STP || batch[i].ANTT != want.ANTT {
			t.Fatalf("mix %d: batch STP/ANTT %v/%v != sequential %v/%v",
				i, batch[i].STP, batch[i].ANTT, want.STP, want.ANTT)
		}
	}
}

func TestSweepFacade(t *testing.T) {
	sys, _ := quickSystem(t)
	mixes, err := RandomMixes(5, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	configs := LLCConfigs()[:2]
	res, err := sys.Eval(context.Background(),
		NewRequest(KindPredict, mixes, WithConfigs(configs...)))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != len(configs)*len(mixes) {
		t.Fatalf("%d scenarios, want %d", len(res.Scenarios), len(configs)*len(mixes))
	}
	for c := range configs {
		if m := res.MeanSTP(c); m <= 0 || m > float64(len(mixes[0])) {
			t.Fatalf("config %d mean STP %v implausible", c, m)
		}
	}
	// A bigger LLC should not hurt throughput on average.
	if res.MeanSTP(1) < res.MeanSTP(0)-1e-9 {
		t.Logf("note: config#2 mean STP %v < config#1 %v", res.MeanSTP(1), res.MeanSTP(0))
	}
}

func TestSweepCancelled(t *testing.T) {
	sys, _ := quickSystem(t)
	mixes, err := RandomMixes(4, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Eval(ctx, NewRequest(KindPredict, mixes,
		WithConfigs(LLCConfigs()...))); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestWarmDeduplicatesConfigs(t *testing.T) {
	sys, err := NewSystemScaled(DefaultLLC(), 200_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := LLCConfigByName("config#2")
	if err != nil {
		t.Fatal(err)
	}
	n, err := sys.Warm(context.Background(), DefaultLLC(), cfg2, DefaultLLC())
	if err != nil {
		t.Fatal(err)
	}
	suite := len(Benchmarks())
	if n != suite*2 {
		t.Fatalf("Warm reported %d profiles for 2 distinct configs, want %d", n, suite*2)
	}
	stats := sys.EngineStats()
	if stats.RecordingComputations != int64(suite) {
		t.Fatalf("warm ran %d recordings for %d benchmarks", stats.RecordingComputations, suite)
	}
	if stats.ProfileComputations != int64(suite*2) {
		t.Fatalf("warm computed %d profiles, want %d", stats.ProfileComputations, suite*2)
	}
}
