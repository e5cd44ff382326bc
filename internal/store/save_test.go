package store

import (
	"context"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"syscall"
	"testing"

	"repro/internal/cache"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/store/codec"
	"repro/internal/trace"
)

// faultFS is the real filesystem with one fault injected into the save
// path.
type faultFS struct {
	osFS
	write  func(f tempFile, b []byte) (int, error) // nil: the real write
	rename error                                   // nil: the real rename
}

func (f faultFS) CreateTemp(dir, pattern string) (tempFile, error) {
	tf, err := f.osFS.CreateTemp(dir, pattern)
	if err != nil || f.write == nil {
		return tf, err
	}
	return faultFile{tf, f.write}, nil
}

func (f faultFS) Rename(oldpath, newpath string) error {
	if f.rename != nil {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: f.rename}
	}
	return f.osFS.Rename(oldpath, newpath)
}

type faultFile struct {
	tempFile
	write func(f tempFile, b []byte) (int, error)
}

func (f faultFile) Write(b []byte) (int, error) { return f.write(f.tempFile, b) }

// files lists every regular file under dir.
func files(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			out = append(out, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSaveFaults: a disk fault anywhere in the write path fails the
// save loudly and cleanly — one SaveErrors, no artifact at the key
// path, no temp file — so the next load is a plain miss, not a
// rejection of half-written bytes.
func TestSaveFaults(t *testing.T) {
	spec, cfg := mustSpec(t, "mcf"), testConfig()
	rec := record(t, spec, cfg)
	cases := []struct {
		name  string
		fs    faultFS
		cause error
	}{
		{"ENOSPC on write", faultFS{write: func(f tempFile, b []byte) (int, error) {
			return 0, &fs.PathError{Op: "write", Path: f.Name(), Err: syscall.ENOSPC}
		}}, syscall.ENOSPC},
		{"short write", faultFS{write: func(f tempFile, b []byte) (int, error) {
			return f.Write(b[:len(b)/2])
		}}, io.ErrShortWrite},
		{"EIO on rename", faultFS{rename: syscall.EIO}, syscall.EIO},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := Open(dir)
			st.fs = tc.fs
			err := st.SaveRecording(spec, cfg, rec)
			if !errors.Is(err, tc.cause) {
				t.Fatalf("save error = %v, want %v", err, tc.cause)
			}
			if s := st.Stats(); s.SaveErrors != 1 || s.Saves != 0 || s.SaveSkips != 0 {
				t.Fatalf("stats = %+v, want exactly one save error", s)
			}
			if left := files(t, dir); len(left) != 0 {
				t.Fatalf("failed save left %v", left)
			}
			fresh := Open(dir)
			if _, ok := fresh.LoadRecording(spec, cfg); ok {
				t.Fatal("load after a failed save hit")
			}
			if s := fresh.Stats(); s.RecordingMisses != 1 || s.Rejected != 0 {
				t.Fatalf("load after a failed save: stats = %+v, want a clean miss", s)
			}
		})
	}
}

// TestSaveConcurrentSameKey: writers racing on one key — goroutines
// sharing a handle and separate handles, as replicas sharing a
// directory — leave exactly one valid artifact and no temp debris,
// while a concurrent reader only ever sees a miss or a whole artifact.
func TestSaveConcurrentSameKey(t *testing.T) {
	dir := t.TempDir()
	spec, cfg := mustSpec(t, "mcf"), testConfig()
	rec := record(t, spec, cfg)
	writers := []*Store{Open(dir), Open(dir), Open(dir)}
	const saves = 12
	reader := Open(dir)

	start, stop := make(chan struct{}), make(chan struct{})
	var readerDone sync.WaitGroup
	readerDone.Add(1)
	go func() {
		defer readerDone.Done()
		<-start
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got, ok := reader.LoadRecording(spec, cfg); ok && got.Accesses() != rec.Accesses() {
				t.Errorf("loaded %d accesses, want %d", got.Accesses(), rec.Accesses())
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, saves)
	for i := range saves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = writers[i%len(writers)].SaveRecording(spec, cfg, rec)
		}()
	}
	close(start)
	wg.Wait()
	close(stop)
	readerDone.Wait()

	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	var saved, skipped int64
	for _, w := range writers {
		s := w.Stats()
		if s.SaveErrors != 0 {
			t.Fatalf("writer stats = %+v", s)
		}
		saved += s.Saves
		skipped += s.SaveSkips
	}
	if saved < 1 || saved+skipped != saves {
		t.Fatalf("%d saves + %d skips, want at least one save and %d in all", saved, skipped, saves)
	}
	if s := reader.Stats(); s.Rejected != 0 {
		t.Fatalf("reader rejected %d artifacts: a torn read", s.Rejected)
	}
	want := reader.path(KindRecordings, RecordingKey(spec, cfg))
	if left := files(t, dir); len(left) != 1 || left[0] != want {
		t.Fatalf("store holds %v, want only %s", left, want)
	}
	if _, ok := Open(dir).LoadRecording(spec, cfg); !ok {
		t.Fatal("the published artifact missed")
	}
}

// TestPooledLoadsDoNotAlias: local loads read into pooled buffers that
// later loads overwrite. Concurrent loads of different profiles must
// each return exactly what an independent decode of the file returns,
// also once the buffers they were read into have been reused. Run it
// under -race.
func TestPooledLoadsDoNotAlias(t *testing.T) {
	st := Open(t.TempDir())
	ctx := context.Background()
	type item struct {
		spec trace.Spec
		cfg  sim.Config
		want *profile.Profile
	}
	var items []item
	for _, name := range []string{"mcf", "lbm", "milc", "gamess"} {
		spec, cfg := mustSpec(t, name), testConfig()
		rec := record(t, spec, cfg)
		for _, llc := range []cache.Config{cache.LLCConfigs()[0], cache.LLCConfigs()[5]} {
			c := cfg
			c.Hierarchy = cache.BaselineHierarchy(llc)
			p, err := rec.Replay(ctx, c, sim.ProfileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := st.SaveProfile(spec, c, sim.ProfileOptions{}, p); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(st.path(KindProfiles, ProfileKey(spec, c, sim.ProfileOptions{})))
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := codec.DecodeProfile(b)
			if err != nil {
				t.Fatal(err)
			}
			items = append(items, item{spec, c, want})
		}
	}

	const loaders, rounds = 4, 8
	got := make([][]*profile.Profile, loaders)
	var wg sync.WaitGroup
	for g := range loaders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds * len(items) {
				it := items[(g+r)%len(items)]
				p, ok := st.LoadProfile(it.spec, it.cfg, sim.ProfileOptions{})
				if !ok {
					t.Errorf("%s/%s missed", it.spec.Name, it.cfg.Hierarchy.LLC.Name)
					return
				}
				got[g] = append(got[g], p)
			}
		}()
	}
	wg.Wait()
	// Reuse every pooled buffer once more before comparing.
	for _, it := range items {
		st.LoadProfile(it.spec, it.cfg, sim.ProfileOptions{})
	}
	for g := range got {
		for r, p := range got[g] {
			want := items[(g+r)%len(items)].want
			if !reflect.DeepEqual(p.Meta, want.Meta) || !reflect.DeepEqual(p.Intervals, want.Intervals) {
				t.Fatalf("loader %d load %d: %s/%s differs from an independent decode",
					g, r, want.Meta.Benchmark, want.Meta.LLC.Name)
			}
		}
	}
	if s := st.Stats(); s.Rejected != 0 || s.ProfileMisses != 0 {
		t.Fatalf("stats = %+v, want every load a clean hit", s)
	}
}
