package core

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenProfiles profiles every benchmark of referenceMixes at 1M
// instructions with 20K-instruction intervals under each Table 2 LLC
// config: one frontend recording per benchmark, replayed per config.
func goldenProfiles(t *testing.T) map[string]*profile.Set {
	t.Helper()
	ctx := context.Background()
	names := map[string]bool{}
	for _, mix := range referenceMixes {
		for _, n := range mix {
			names[n] = true
		}
	}
	llcs := cache.LLCConfigs()
	sets := make(map[string]*profile.Set, len(llcs))
	for _, llc := range llcs {
		sets[llc.Name] = profile.NewSet()
	}
	for name := range names {
		spec, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sim.DefaultConfig(llcs[0])
		cfg.TraceLength = 1_000_000
		cfg.IntervalLength = 20_000
		rec, err := sim.RecordSpec(ctx, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, llc := range llcs {
			c := cfg
			c.Hierarchy = cache.BaselineHierarchy(llc)
			p, err := rec.Replay(ctx, c, sim.ProfileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sets[llc.Name].Profiles[name] = p
		}
	}
	return sets
}

// appendBits appends vs as comma-separated hexadecimal float64 bit
// patterns, so a one-ULP difference changes the text.
func appendBits(b []byte, vs []float64) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, "%016x", math.Float64bits(v))
	}
	return b
}

// goldenLine renders every output of one kernel run by float bits.
func goldenLine(cfg string, mix []string, opts string, res *Result) []byte {
	b := fmt.Appendf(nil, "%s %s %s iter=%d stp=%016x antt=%016x", cfg,
		strings.Join(mix, ","), opts, res.Iterations,
		math.Float64bits(res.STP), math.Float64bits(res.ANTT))
	b = appendBits(append(b, " slowdown="...), res.Slowdown)
	b = appendBits(append(b, " single="...), res.SingleCPI)
	b = appendBits(append(b, " multi="...), res.MultiCPI)
	b = append(b, " history="...)
	if len(res.History) == 0 {
		b = append(b, '-')
	}
	for i, h := range res.History {
		if i > 0 {
			b = append(b, ';')
		}
		b = appendBits(b, h)
	}
	return append(b, '\n')
}

// TestKernelGolden pins every kernel output by its float bits: the
// referenceMixes under each Table 2 config, across the referenceOptions
// matrix plus a heterogeneous FrequencyScale run. resultsClose's 1e-9
// tolerance cannot show that a kernel change is bit-identical; this
// test can. A change that is meant to move the model's numbers
// regenerates the file with: go test ./internal/core -run KernelGolden -update
func TestKernelGolden(t *testing.T) {
	sets := goldenProfiles(t)
	optionMatrix := referenceOptions()
	freq := []float64{1, 0.5, 2, 1.25}
	k := NewKernel()
	var out bytes.Buffer
	out.WriteString("# config mix options: iterations, STP, ANTT, then per-program float64 bits\n")
	for _, llc := range cache.LLCConfigs() {
		set := sets[llc.Name]
		for _, mix := range referenceMixes {
			profs := make([]*profile.Profile, len(mix))
			for i, name := range mix {
				p, err := set.Get(name)
				if err != nil {
					t.Fatal(err)
				}
				profs[i] = p
			}
			run := func(label string, opts Options) {
				res, err := k.Run(profs, opts)
				if err != nil {
					t.Fatalf("%s %v %s: %v", llc.Name, mix, label, err)
				}
				out.Write(goldenLine(llc.Name, mix, label, res))
			}
			for oi, opts := range optionMatrix {
				run(fmt.Sprintf("opts=%d", oi), opts)
			}
			run("freq", Options{FrequencyScale: freq[:len(mix)]})
		}
	}

	path := filepath.Join("testdata", "kernel.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	gotLines := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			if bad++; bad <= 5 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
	t.Fatalf("%d kernel outputs differ from %s by float bits", bad, path)
}
