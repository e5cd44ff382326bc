package store

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/sim"
	"repro/internal/store/codec"
	"repro/internal/trace"
)

func testConfig() sim.Config {
	cfg := sim.DefaultConfig(cache.LLCConfigs()[0])
	cfg.TraceLength = 200_000
	cfg.IntervalLength = 20_000
	return cfg
}

func mustSpec(t testing.TB, name string) trace.Spec {
	t.Helper()
	s, err := trace.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func record(t testing.TB, spec trace.Spec, cfg sim.Config) *sim.Recording {
	t.Helper()
	rec, err := sim.RecordSpec(context.Background(), spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRecordingSaveLoad is the basic persistence round trip plus the
// counter bookkeeping around it.
func TestRecordingSaveLoad(t *testing.T) {
	st := Open(t.TempDir())
	spec, cfg := mustSpec(t, "mcf"), testConfig()

	if _, ok := st.LoadRecording(spec, cfg); ok {
		t.Fatal("empty store hit")
	}
	rec := record(t, spec, cfg)
	if err := st.SaveRecording(spec, cfg, rec); err != nil {
		t.Fatal(err)
	}
	got, ok := st.LoadRecording(spec, cfg)
	if !ok {
		t.Fatal("saved recording missed")
	}
	if got.Benchmark() != "mcf" || got.Accesses() != rec.Accesses() {
		t.Fatalf("loaded %s/%d accesses, want mcf/%d", got.Benchmark(), got.Accesses(), rec.Accesses())
	}
	// A second save of the same content is skipped (content-addressed).
	if err := st.SaveRecording(spec, cfg, rec); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.RecordingHits != 1 || s.RecordingMisses != 1 || s.Saves != 1 || s.SaveSkips != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesLoaded == 0 {
		t.Fatal("no bytes accounted")
	}
}

// TestProfileSaveLoad round-trips a profile and checks that replay
// options partition the key space.
func TestProfileSaveLoad(t *testing.T) {
	st := Open(t.TempDir())
	spec, cfg := mustSpec(t, "mcf"), testConfig()
	rec := record(t, spec, cfg)
	p, err := rec.Replay(context.Background(), cfg, sim.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveProfile(spec, cfg, sim.ProfileOptions{}, p); err != nil {
		t.Fatal(err)
	}
	got, ok := st.LoadProfile(spec, cfg, sim.ProfileOptions{})
	if !ok {
		t.Fatal("saved profile missed")
	}
	if got.Meta != p.Meta || got.CPI() != p.CPI() {
		t.Fatalf("loaded profile differs: %+v vs %+v", got.Meta, p.Meta)
	}
	// PerfectLLC profiles live under a different key.
	if _, ok := st.LoadProfile(spec, cfg, sim.ProfileOptions{PerfectLLC: true}); ok {
		t.Fatal("perfect-LLC lookup hit the default-options artifact")
	}
	// So do different LLC geometries.
	other := cfg
	other.Hierarchy = cache.BaselineHierarchy(cache.LLCConfigs()[3])
	if _, ok := st.LoadProfile(spec, other, sim.ProfileOptions{}); ok {
		t.Fatal("different LLC hit the same artifact")
	}
}

// TestStaleSpecMisses: editing a benchmark's definition (same name)
// must invalidate its artifacts via the spec hash in the key.
func TestStaleSpecMisses(t *testing.T) {
	st := Open(t.TempDir())
	spec, cfg := mustSpec(t, "mcf"), testConfig()
	if err := st.SaveRecording(spec, cfg, record(t, spec, cfg)); err != nil {
		t.Fatal(err)
	}
	edited := spec
	edited.Seed++
	if _, ok := st.LoadRecording(edited, cfg); ok {
		t.Fatal("edited spec served a stale recording")
	}
	if _, ok := st.LoadRecording(spec, cfg); !ok {
		t.Fatal("original spec missed")
	}
}

// TestCorruptArtifactRejectedAndRemoved: damage on disk must read as a
// miss, count as rejected, and leave the slot clean for re-persisting.
func TestCorruptArtifactRejectedAndRemoved(t *testing.T) {
	dir := t.TempDir()
	st := Open(dir)
	spec, cfg := mustSpec(t, "mcf"), testConfig()
	rec := record(t, spec, cfg)
	if err := st.SaveRecording(spec, cfg, rec); err != nil {
		t.Fatal(err)
	}
	path := st.path(KindRecordings, RecordingKey(spec, cfg))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LoadRecording(spec, cfg); ok {
		t.Fatal("corrupt recording loaded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt file not removed")
	}
	if s := st.Stats(); s.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Rejected)
	}
	// Recompute-and-persist works after rejection.
	if err := st.SaveRecording(spec, cfg, rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LoadRecording(spec, cfg); !ok {
		t.Fatal("re-persisted recording missed")
	}
}

// TestListAndVerify covers the inspection surface, including how a
// damaged artifact is reported rather than hidden.
func TestListAndVerify(t *testing.T) {
	dir := t.TempDir()
	st := Open(dir)
	spec, cfg := mustSpec(t, "mcf"), testConfig()
	rec := record(t, spec, cfg)
	if err := st.SaveRecording(spec, cfg, rec); err != nil {
		t.Fatal(err)
	}
	p, err := rec.Replay(context.Background(), cfg, sim.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveProfile(spec, cfg, sim.ProfileOptions{}, p); err != nil {
		t.Fatal(err)
	}

	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("listed %d entries, want 2", len(entries))
	}
	kinds := map[codec.Kind]bool{}
	for _, e := range entries {
		if e.Err != nil {
			t.Fatalf("entry %s: %v", e.Path, e.Err)
		}
		if e.Benchmark != "mcf" {
			t.Fatalf("entry benchmark = %q", e.Benchmark)
		}
		kinds[e.Kind] = true
	}
	if !kinds[codec.KindRecording] || !kinds[codec.KindProfile] {
		t.Fatalf("kinds = %v", kinds)
	}

	if _, bad, err := st.Verify(); err != nil || bad != 0 {
		t.Fatalf("verify clean store: bad=%d err=%v", bad, err)
	}
	// Damage the profile; verify must flag exactly it.
	path := st.path(KindProfiles, ProfileKey(spec, cfg, sim.ProfileOptions{}))
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	entries, bad, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Fatalf("verify after damage: bad = %d, want 1", bad)
	}
	found := false
	for _, e := range entries {
		if e.Err != nil && strings.HasSuffix(e.Path, profileExt) {
			found = true
		}
	}
	if !found {
		t.Fatal("damaged profile not flagged")
	}
}

// TestGC bounds the store by size, oldest first, and sweeps debris.
func TestGC(t *testing.T) {
	dir := t.TempDir()
	st := Open(dir)
	cfg := testConfig()
	specs := []string{"mcf", "lbm", "milc"}
	for i, name := range specs {
		spec := mustSpec(t, name)
		if err := st.SaveRecording(spec, cfg, record(t, spec, cfg)); err != nil {
			t.Fatal(err)
		}
		// Stagger mtimes so GC order is deterministic: mcf oldest.
		path := st.path(KindRecordings, RecordingKey(spec, cfg))
		ts := time.Now().Add(time.Duration(i-len(specs)) * time.Hour)
		if err := os.Chtimes(path, ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	// Debris from a crashed writer (old) and an in-flight save (fresh):
	// GC must sweep the former and leave the latter alone.
	oldDebris := filepath.Join(st.vdir, "recordings", "junk.rec"+tmpExt)
	if err := os.WriteFile(oldDebris, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	stale := time.Now().Add(-2 * staleTmpAge)
	if err := os.Chtimes(oldDebris, stale, stale); err != nil {
		t.Fatal(err)
	}
	freshDebris := filepath.Join(st.vdir, "recordings", "live.rec"+tmpExt)
	if err := os.WriteFile(freshDebris, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	total, err := st.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	// Budget for roughly two of the three artifacts: the oldest goes.
	removed, freed, err := st.GC(total * 2 / 3)
	if err != nil {
		t.Fatal(err)
	}
	if removed < 1 || freed <= 0 {
		t.Fatalf("GC removed %d/%d bytes", removed, freed)
	}
	if _, err := os.Stat(oldDebris); !os.IsNotExist(err) {
		t.Fatal("GC left crashed-writer debris")
	}
	if _, err := os.Stat(freshDebris); err != nil {
		t.Fatal("GC swept an in-flight save's temp file")
	}
	if err := os.Remove(freshDebris); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.LoadRecording(mustSpec(t, "mcf"), cfg); ok {
		t.Fatal("oldest artifact survived GC")
	}
	if _, ok := st.LoadRecording(mustSpec(t, "milc"), cfg); !ok {
		t.Fatal("newest artifact did not survive GC")
	}
	size, err := st.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if size > total*2/3 {
		t.Fatalf("store still %d bytes over a %d budget", size, total*2/3)
	}
	// GC to zero empties the store.
	if _, _, err := st.GC(0); err != nil {
		t.Fatal(err)
	}
	if size, _ := st.SizeBytes(); size != 0 {
		t.Fatalf("store holds %d bytes after GC(0)", size)
	}
}

// TestUnwritableStoreCountsErrors: per Open's contract, an unwritable
// tree makes saves count as errors — not silent skips — so `mppm cache
// warm` against a read-only store fails loudly instead of reporting
// success while persisting nothing.
func TestUnwritableStoreCountsErrors(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("directory permissions do not bind as root")
	}
	dir := t.TempDir()
	st := Open(dir)
	spec, cfg := mustSpec(t, "mcf"), testConfig()
	rec := record(t, spec, cfg)

	ro := filepath.Join(st.vdir, "recordings")
	if err := os.MkdirAll(ro, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chmod(ro, 0o755) })

	if err := st.SaveRecording(spec, cfg, rec); err == nil {
		t.Fatal("save into a read-only tree reported success")
	}
	s := st.Stats()
	if s.SaveErrors != 1 || s.SaveSkips != 0 {
		t.Fatalf("stats = %+v, want the failure counted as an error", s)
	}
}

// TestMissingDirDegrades: a store on a nonexistent directory serves
// misses and lists empty instead of failing.
func TestMissingDirDegrades(t *testing.T) {
	st := Open(filepath.Join(t.TempDir(), "never-created"))
	if _, ok := st.LoadRecording(mustSpec(t, "mcf"), testConfig()); ok {
		t.Fatal("phantom hit")
	}
	entries, err := st.List()
	if err != nil || len(entries) != 0 {
		t.Fatalf("List = %d entries, %v", len(entries), err)
	}
	if _, bad, err := st.Verify(); err != nil || bad != 0 {
		t.Fatalf("Verify = bad %d, %v", bad, err)
	}
	if size, err := st.SizeBytes(); err != nil || size != 0 {
		t.Fatalf("SizeBytes = %d, %v", size, err)
	}
}

// TestPersistedReplayMatchesDirect extends the PR 4 differential oracle
// through the store: for every suite benchmark, a recording persisted
// to disk and reloaded must replay to exact float equality with the
// direct sim.ProfileSource path, across all six Table 2 LLC
// configurations. This is the acceptance bar for the whole persistence
// tier — serving artifacts from disk changes nothing, to the last ULP.
func TestPersistedReplayMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite x Table 2 differential is not short")
	}
	ctx := context.Background()
	llcs := cache.LLCConfigs()
	dir := t.TempDir()
	for _, spec := range trace.Suite() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			st := Open(dir)
			cfg := testConfig()
			rec := record(t, spec, cfg)
			if rec.Accesses() == 0 {
				t.Skipf("%s has no LLC accesses at this scale", spec.Name)
			}
			if err := st.SaveRecording(spec, cfg, rec); err != nil {
				t.Fatal(err)
			}
			loaded, ok := st.LoadRecording(spec, cfg)
			if !ok {
				t.Fatal("persisted recording missed")
			}
			for _, llc := range llcs {
				c := cfg
				c.Hierarchy = cache.BaselineHierarchy(llc)
				direct, err := sim.ProfileWithOptions(ctx, spec, c, sim.ProfileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				replayed, err := loaded.Replay(ctx, c, sim.ProfileOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if replayed.Meta != direct.Meta {
					t.Fatalf("%s: meta = %+v, want %+v", llc.Name, replayed.Meta, direct.Meta)
				}
				if len(replayed.Intervals) != len(direct.Intervals) {
					t.Fatalf("%s: %d intervals, want %d", llc.Name,
						len(replayed.Intervals), len(direct.Intervals))
				}
				for i := range direct.Intervals {
					g, w := replayed.Intervals[i], direct.Intervals[i]
					if g.Instructions != w.Instructions || g.Cycles != w.Cycles ||
						g.MemStall != w.MemStall || g.LLCAccesses != w.LLCAccesses {
						t.Fatalf("%s: interval %d = %+v, want %+v", llc.Name, i, g, w)
					}
					for k := range w.SDC {
						if g.SDC[k] != w.SDC[k] {
							t.Fatalf("%s: interval %d SDC[%d] = %v, want %v",
								llc.Name, i, k, g.SDC[k], w.SDC[k])
						}
					}
				}
			}
		})
	}
}
