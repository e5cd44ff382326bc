package sim_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/store/codec"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenMix is the 4-core workload whose detailed simulation the golden
// file pins: a cache-sensitive, a streaming, an irregular and a
// memory-bound program sharing config#1.
var goldenMix = []string{"gamess", "lbm", "soplex", "mcf"}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:12])
}

// streamDigest hashes every field of every reference the synthetic
// generator emits for spec, so the golden file pins the trace itself and
// not only what survives the private caches.
func streamDigest(t *testing.T, spec trace.Spec, length int64) string {
	t.Helper()
	rd, err := trace.NewReader(spec, length)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	var rec [25]byte
	for {
		ref, ok := rd.Next()
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(rec[0:], ref.Addr)
		binary.LittleEndian.PutUint64(rec[8:], uint64(ref.Gap))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(ref.GapCycles))
		rec[24] = 0
		if ref.Write {
			rec[24] |= 1
		}
		if ref.Dependent {
			rec[24] |= 2
		}
		b.Write(rec[:])
	}
	return digest(b.Bytes())
}

// multicoreDigest hashes every field of a multi-core result, floats by
// their bit patterns, so a one-ULP drift changes the digest.
func multicoreDigest(res *sim.MulticoreResult) string {
	var b bytes.Buffer
	w := func(v uint64) { binary.Write(&b, binary.LittleEndian, v) }
	for i := range res.Benchmarks {
		b.WriteString(res.Benchmarks[i])
		w(math.Float64bits(res.CPI[i]))
		w(math.Float64bits(res.Cycles[i]))
		w(uint64(res.Instructions[i]))
		w(uint64(res.LLCAccesses[i]))
		w(uint64(res.LLCMisses[i]))
	}
	s := res.LLCStats
	w(uint64(s.Accesses))
	w(uint64(s.Hits))
	w(uint64(s.Misses))
	w(uint64(s.Writebacks))
	w(math.Float64bits(res.TotalCycles))
	return digest(b.Bytes())
}

// goldenOutputs renders the pipeline's outputs at a small fixed scale:
// per suite benchmark, the synthetic reference stream, the codec-encoded
// frontend recording and the config#1 and config#6 replayed profiles;
// then one 4-core detailed simulation at the baseline frequency and the
// same mix on heterogeneous cores.
func goldenOutputs(t *testing.T) []byte {
	t.Helper()
	ctx := context.Background()
	llcs := cache.LLCConfigs()
	cfg := sim.DefaultConfig(llcs[0])
	cfg.TraceLength = 200_000
	cfg.IntervalLength = 20_000

	var out bytes.Buffer
	fmt.Fprintf(&out, "# sim.OutputGeneration %d, codec.FormatVersion %d\n", sim.OutputGeneration, codec.FormatVersion)
	fmt.Fprintf(&out, "# trace length %d, interval %d; digests are truncated sha256\n", cfg.TraceLength, cfg.IntervalLength)
	for _, spec := range trace.Suite() {
		rec, err := sim.RecordSpec(ctx, spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		hash := codec.SpecHash(spec)
		fmt.Fprintf(&out, "%s stream %s recording %s", spec.Name,
			streamDigest(t, spec, cfg.TraceLength), digest(codec.EncodeRecording(rec, hash)))
		for _, llc := range []cache.Config{llcs[0], llcs[5]} {
			c := cfg
			c.Hierarchy = cache.BaselineHierarchy(llc)
			p, err := rec.Replay(ctx, c, sim.ProfileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, " %s %s", llc.Name, digest(codec.EncodeProfile(p, hash)))
		}
		out.WriteByte('\n')
	}

	specs := make([]trace.Spec, len(goldenMix))
	for i, name := range goldenMix {
		s, err := trace.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = s
	}
	for _, run := range []struct {
		label string
		freq  []float64
	}{
		{"multicore", nil},
		{"multicore-hetero", []float64{1, 1.5, 0.75, 2}},
	} {
		res, err := sim.RunMulticore(ctx, specs, cfg, run.freq)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s %s %s\n", run.label, strings.Join(goldenMix, ","), multicoreDigest(res))
	}
	return out.Bytes()
}

// TestOutputsGolden pins the values the profiling pipeline produces.
// Artifact stores and peers address recordings and profiles by content
// keyed on sim.OutputGeneration, so a change that alters any recorded
// or simulated value must bump OutputGeneration; otherwise stale
// artifacts would be served as current. The recording and profile
// digests hash codec-encoded bytes, so a codec.FormatVersion bump moves
// them too. Regenerate after a deliberate bump of either with:
// go test ./internal/sim -run OutputsGolden -update
func TestOutputsGolden(t *testing.T) {
	got := goldenOutputs(t)
	path := filepath.Join("testdata", "outputs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	if gotLines[0] != wantLines[0] {
		t.Fatalf("%s was generated under %q, code is at %q: regenerate with -update",
			path, strings.TrimPrefix(wantLines[0], "# "), strings.TrimPrefix(gotLines[0], "# "))
	}
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
	t.Fatalf("pipeline outputs drifted from %s without a sim.OutputGeneration bump", path)
}
