// Package store is the persistent artifact store of the reproduction: a
// content-addressed, versioned on-disk home for the two expensive
// intermediates of the evaluation pipeline — profiling-frontend
// recordings and single-core profiles — so that mppmd replicas, CI runs
// and repeated CLI invocations share and survive restarts with their
// most expensive artifacts instead of recomputing them per process.
//
// Layout (everything under one root directory):
//
//	<dir>/v<FormatVersion>/recordings/<key>.rec
//	<dir>/v<FormatVersion>/profiles/<key>.prof
//
// Keys are content addresses: a SHA-256 over the artifact's full
// identity (benchmark spec hash, trace scale, capture parameters, and —
// for profiles — the LLC geometry and replay options), so distinct
// configurations can never alias and a changed benchmark definition
// simply misses. Every writer stages its payload in a uniquely named
// temp file and renames it into place; rename is atomic, so concurrent
// replicas never observe a torn artifact. Two replicas racing on one
// key may both encode it, and the later rename replaces identical
// content. The format version is part of the path: a codec bump starts
// a fresh tree and leaves the old one to GC.
//
// The store is a cache, not a database: every Load failure — missing,
// corrupt, stale, version-skewed — is reported as a miss (with the
// Rejected counter distinguishing damage from absence) and the caller
// recomputes and re-persists. Loads and saves are safe for concurrent
// use by any number of goroutines and processes sharing the directory.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/store/codec"
	"repro/internal/trace"
)

const (
	recordingExt = ".rec"
	profileExt   = ".prof"
	tmpExt       = ".tmp"

	// staleTmpAge is how old a temp file may grow before GC declares its
	// writer dead and sweeps it. Serializing even the largest recording
	// takes well under a second; minutes of age means a crashed process.
	staleTmpAge = 10 * time.Minute

	// maxPooledRead caps the read buffers kept for reuse, so one large
	// recording does not pin its size in the pool.
	maxPooledRead = 4 << 20
)

// Stats are the store's operation counters. All fields are cumulative
// for the lifetime of the Store handle.
type Stats struct {
	// RecordingHits/Misses and ProfileHits/Misses count Load outcomes.
	// Every miss — absent, corrupt, stale or version-skewed — is a miss;
	// Rejected additionally counts the loads that failed because an
	// existing file had to be discarded.
	RecordingHits   int64 `json:"recording_hits"`
	RecordingMisses int64 `json:"recording_misses"`
	ProfileHits     int64 `json:"profile_hits"`
	ProfileMisses   int64 `json:"profile_misses"`
	Rejected        int64 `json:"rejected"`
	// Saves counts artifacts persisted by this handle; SaveSkips counts
	// saves elided because the artifact already existed; SaveErrors
	// counts I/O failures.
	Saves      int64 `json:"saves"`
	SaveSkips  int64 `json:"save_skips"`
	SaveErrors int64 `json:"save_errors"`
	// BytesLoaded totals the file bytes served from the store.
	BytesLoaded int64 `json:"bytes_loaded"`
	// PeerFetchHits/Misses count loads that fell through to the peer
	// fetch tier (see SetPeerFetch): a hit means a fleet peer supplied a
	// valid artifact that a local miss would otherwise have recomputed;
	// a miss means the fetch was attempted and failed (no peer had it,
	// or every copy offered was damaged). PeerBytesFetched totals the
	// raw bytes pulled from peers.
	PeerFetchHits    int64 `json:"peer_fetch_hits"`
	PeerFetchMisses  int64 `json:"peer_fetch_misses"`
	PeerBytesFetched int64 `json:"peer_bytes_fetched"`
}

// ArtifactKind names one of the store's artifact classes the way the
// fleet artifact-exchange endpoint spells them in URLs.
type ArtifactKind string

// The two artifact classes the store holds.
const (
	KindRecordings ArtifactKind = "recordings"
	KindProfiles   ArtifactKind = "profiles"
)

// ext returns the kind's file extension, or ok=false for an unknown kind.
func (k ArtifactKind) ext() (string, bool) {
	switch k {
	case KindRecordings:
		return recordingExt, true
	case KindProfiles:
		return profileExt, true
	}
	return "", false
}

// ErrBadArtifactRef reports an artifact reference (kind or key) that
// could never name a stored artifact — as opposed to one that is merely
// absent.
var ErrBadArtifactRef = errors.New("store: bad artifact reference")

// PeerFetch pulls the raw encoded bytes of one artifact from a fleet
// peer: exactly the file bytes a peer's ReadRaw serves, codec checksum
// intact. A nil error with a non-nil payload means "a peer offered
// this"; the store still runs the full decode-and-validate gauntlet
// before trusting it. Implementations must be safe for concurrent use.
type PeerFetch func(kind ArtifactKind, key string) ([]byte, error)

// fileSystem is the seam under save: the calls the write path makes,
// so tests can inject the faults a real disk produces (ENOSPC, EIO,
// short writes). Handles from Open use osFS.
type fileSystem interface {
	CreateTemp(dir, pattern string) (tempFile, error)
	MkdirAll(path string, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
}

// tempFile is the part of *os.File a save writes through.
type tempFile interface {
	Name() string
	Chmod(mode fs.FileMode) error
	Write(b []byte) (int, error)
	Close() error
}

// osFS is the operating system's filesystem.
type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (tempFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }

// Store is a handle on one artifact directory. The zero value is not
// usable; call Open.
type Store struct {
	dir  string
	vdir string // the current format version's subtree
	fs   fileSystem

	// peerFetch, when non-nil, is consulted after a local load misses
	// and before the caller recomputes. Set once via SetPeerFetch before
	// the store serves concurrent loads.
	peerFetch PeerFetch

	recordingHits   atomic.Int64
	recordingMisses atomic.Int64
	profileHits     atomic.Int64
	profileMisses   atomic.Int64
	rejected        atomic.Int64
	saves           atomic.Int64
	saveSkips       atomic.Int64
	saveErrors      atomic.Int64
	bytesLoaded     atomic.Int64
	peerHits        atomic.Int64
	peerMisses      atomic.Int64
	peerBytes       atomic.Int64
}

// Open returns a handle on the artifact store rooted at dir. The
// directory is created lazily on first save, so opening a store never
// fails; a missing or unwritable directory degrades to a pass-through
// cache (all loads miss, saves count as errors).
func Open(dir string) *Store {
	return &Store{
		dir:  dir,
		vdir: filepath.Join(dir, "v"+strconv.Itoa(codec.FormatVersion)),
		fs:   osFS{},
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetPeerFetch installs the fleet peer-fetch tier: after a local load
// misses (absent or rejected), the store asks f for the artifact's raw
// bytes, validates them exactly like a local file, persists them and
// serves the result — so a cold replica joining a warm fleet pulls its
// recordings over the wire in milliseconds instead of re-running
// frontend passes. Call before the store serves concurrent loads.
func (s *Store) SetPeerFetch(f PeerFetch) { s.peerFetch = f }

// Ready verifies the store is usable as a persistence tier: the current
// format version's subtree exists (creating it if needed) and is a
// directory. It is the cheap readiness probe behind mppmd's /v1/readyz
// — a store that fails it would degrade every save to an error, which a
// load balancer should know before routing cold-start traffic here.
func (s *Store) Ready() error {
	if err := os.MkdirAll(s.vdir, 0o755); err != nil {
		return fmt.Errorf("store: not ready: %w", err)
	}
	fi, err := os.Stat(s.vdir)
	if err != nil {
		return fmt.Errorf("store: not ready: %w", err)
	}
	if !fi.IsDir() {
		return fmt.Errorf("store: not ready: %s is not a directory", s.vdir)
	}
	return nil
}

// Stats returns a snapshot of the operation counters.
func (s *Store) Stats() Stats {
	return Stats{
		RecordingHits:   s.recordingHits.Load(),
		RecordingMisses: s.recordingMisses.Load(),
		ProfileHits:     s.profileHits.Load(),
		ProfileMisses:   s.profileMisses.Load(),
		Rejected:        s.rejected.Load(),
		Saves:           s.saves.Load(),
		SaveSkips:       s.saveSkips.Load(),
		SaveErrors:      s.saveErrors.Load(),
		BytesLoaded:     s.bytesLoaded.Load(),

		PeerFetchHits:    s.peerHits.Load(),
		PeerFetchMisses:  s.peerMisses.Load(),
		PeerBytesFetched: s.peerBytes.Load(),
	}
}

// appendFrontendIdentity appends the identity every artifact shares:
// everything the profiling frontend depends on — including
// sim.OutputGeneration, so a semantic change to the pipeline (same
// encoding, different values) invalidates every artifact instead of
// serving stale ones. The text is exactly what fmt renders for
//
//	"|gen=%d|spec=%016x|n=%d|iv=%d|cpu=%+v|l1d=%+v|l2=%+v"
//
// which is what existing stores are keyed by (TestKeysStable).
func appendFrontendIdentity(b []byte, specHash uint64, cfg sim.Config) []byte {
	b = append(b, "|gen="...)
	b = strconv.AppendInt(b, sim.OutputGeneration, 10)
	b = append(b, "|spec="...)
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, "0123456789abcdef"[specHash>>shift&0xf])
	}
	b = append(b, "|n="...)
	b = strconv.AppendInt(b, cfg.TraceLength, 10)
	b = append(b, "|iv="...)
	b = strconv.AppendInt(b, cfg.IntervalLength, 10)
	c := cfg.CPU
	b = append(b, "|cpu={ROBWindow:"...)
	b = strconv.AppendInt(b, c.ROBWindow, 10)
	b = append(b, " HiddenLatency:"...)
	b = strconv.AppendFloat(b, c.HiddenLatency, 'g', -1, 64)
	b = append(b, " L2HitStall:"...)
	b = strconv.AppendFloat(b, c.L2HitStall, 'g', -1, 64)
	b = append(b, " MemLatency:"...)
	b = strconv.AppendFloat(b, c.MemLatency, 'g', -1, 64)
	b = append(b, " OverlapFactor:"...)
	b = strconv.AppendFloat(b, c.OverlapFactor, 'g', -1, 64)
	b = append(b, '}')
	b = appendCacheIdentity(b, "|l1d=", cfg.Hierarchy.L1D)
	return appendCacheIdentity(b, "|l2=", cfg.Hierarchy.L2)
}

// appendCacheIdentity appends label and a cache geometry as %+v
// renders it.
func appendCacheIdentity(b []byte, label string, c cache.Config) []byte {
	b = append(b, label...)
	b = append(b, "{Name:"...)
	b = append(b, c.Name...)
	b = append(b, " SizeBytes:"...)
	b = strconv.AppendInt(b, c.SizeBytes, 10)
	b = append(b, " Ways:"...)
	b = strconv.AppendInt(b, int64(c.Ways), 10)
	b = append(b, " LineSize:"...)
	b = strconv.AppendInt(b, c.LineSize, 10)
	b = append(b, " LatencyCycles:"...)
	b = strconv.AppendInt(b, int64(c.LatencyCycles), 10)
	return append(b, '}')
}

// keyLen is the length of an encoded content key (hex of the truncated
// SHA-256).
const keyLen = 32

// contentKey content-addresses an identity.
func contentKey(identity []byte) string {
	sum := sha256.Sum256(identity)
	return hex.EncodeToString(sum[:keyLen/2])
}

// recordingKey keys a recording by its identity. The LLC geometry and
// bandwidth model are replay-side and deliberately absent.
func recordingKey(specHash uint64, cfg sim.Config) string {
	var buf [512]byte
	b := append(buf[:0], "recording"...)
	return contentKey(appendFrontendIdentity(b, specHash, cfg))
}

// profileKey extends the recording identity with the replay-side knobs
// a profile depends on, rendered as "|llc=%+v|occ=%v|perfect=%v".
func profileKey(specHash uint64, cfg sim.Config, opts sim.ProfileOptions) string {
	var buf [512]byte
	b := append(buf[:0], "profile"...)
	b = appendFrontendIdentity(b, specHash, cfg)
	b = appendCacheIdentity(b, "|llc=", cfg.Hierarchy.LLC)
	b = append(b, "|occ="...)
	b = strconv.AppendFloat(b, cfg.MemBandwidthOccupancy, 'g', -1, 64)
	b = append(b, "|perfect="...)
	b = strconv.AppendBool(b, opts.PerfectLLC)
	return contentKey(b)
}

// RecordingKey returns the content key of one (benchmark, config)
// frontend recording — the address a replica quotes when asking a fleet
// peer for the artifact.
func RecordingKey(spec trace.Spec, cfg sim.Config) string {
	return recordingKey(codec.SpecHash(spec), cfg)
}

// ProfileKey returns the content key of one (benchmark, config, options)
// single-core profile.
func ProfileKey(spec trace.Spec, cfg sim.Config, opts sim.ProfileOptions) string {
	return profileKey(codec.SpecHash(spec), cfg, opts)
}

// validKey reports whether key has the exact shape RecordingKey and
// ProfileKey produce, so URL-supplied keys can never escape the
// artifact directories.
func validKey(key string) bool {
	if len(key) != keyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// path is the on-disk location of one artifact of a known kind under a
// well-formed key.
func (s *Store) path(kind ArtifactKind, key string) string {
	ext, _ := kind.ext()
	return s.vdir + string(filepath.Separator) + string(kind) +
		string(filepath.Separator) + key + ext
}

// ReadRaw returns the exact encoded file bytes of one artifact — codec
// header, payload and trailing checksum intact — for the fleet
// artifact-exchange endpoint. The caller (a peer's load path) performs
// its own decode-and-validate; ReadRaw itself only guards the reference
// shape. A missing artifact returns an error wrapping fs.ErrNotExist; a
// malformed reference wraps ErrBadArtifactRef.
func (s *Store) ReadRaw(kind ArtifactKind, key string) ([]byte, error) {
	if _, ok := kind.ext(); !ok {
		return nil, fmt.Errorf("%w: unknown kind %q", ErrBadArtifactRef, string(kind))
	}
	if !validKey(key) {
		return nil, fmt.Errorf("%w: malformed key %q", ErrBadArtifactRef, key)
	}
	b, err := os.ReadFile(s.path(kind, key))
	if err != nil {
		return nil, fmt.Errorf("store: artifact %s/%s: %w", kind, key, err)
	}
	return b, nil
}

// readBufs recycles the buffers local loads read artifacts into.
var readBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 16<<10)
	return &b
}}

// readPooled reads a whole file with one open, a read loop and a close
// into a pooled buffer. The caller hands the buffer back with
// releaseRead once nothing reads it any more — after decode returns.
func readPooled(path string) (*[]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	bp := readBufs.Get().(*[]byte)
	b := (*bp)[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		n, err = f.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			break
		}
	}
	f.Close()
	*bp = b
	if err != io.EOF {
		releaseRead(bp)
		return nil, err
	}
	return bp, nil
}

// releaseRead returns a read buffer to the pool.
func releaseRead(bp *[]byte) {
	if cap(*bp) <= maxPooledRead {
		readBufs.Put(bp)
	}
}

// reject discards a damaged or stale artifact so the recomputed
// replacement can take its place. Rejections are traced at error level:
// a store that keeps rejecting files is corrupting or version-skewed,
// which an operator wants to see even at conservative trace settings.
func (s *Store) reject(path string) {
	s.rejected.Add(1)
	_ = os.Remove(path)
	if obs.Store.Enabled(obs.LevelError) {
		obs.Store.Log(context.Background(), obs.LevelError,
			"artifact rejected", "path", path)
	}
}

// decodeRecording runs the full trust gauntlet on encoded recording
// bytes — codec decode (checksum, structural validation) plus identity
// checks against what the caller asked for — and returns nil on any
// failure. Local files and peer-fetched bytes pass the exact same bar.
// The recording never aliases b.
func decodeRecording(b []byte, name string, specHash uint64, cfg sim.Config) *sim.Recording {
	rec, hdr, err := codec.DecodeRecording(b)
	if err != nil ||
		hdr.Benchmark != name ||
		hdr.SpecHash != specHash ||
		hdr.TraceLength != cfg.TraceLength ||
		hdr.IntervalLength != cfg.IntervalLength {
		return nil
	}
	return rec
}

// decodeProfile is decodeRecording's profile twin, additionally pinning
// the LLC geometry the profile was replayed under.
func decodeProfile(b []byte, name string, specHash uint64, cfg sim.Config) *profile.Profile {
	p, hdr, err := codec.DecodeProfile(b)
	if err != nil ||
		hdr.Benchmark != name ||
		hdr.SpecHash != specHash ||
		hdr.TraceLength != cfg.TraceLength ||
		hdr.IntervalLength != cfg.IntervalLength ||
		hdr.LLC != cfg.Hierarchy.LLC {
		return nil
	}
	return p
}

// load serves one artifact from the local file, falling through to the
// peer tier on a miss. decode runs the full trust gauntlet, returns nil
// on any failure and must not retain its input: a local file's bytes go
// back to the read pool as soon as it returns.
func load[T any](s *Store, kind ArtifactKind, key, name string, hits, misses *atomic.Int64, decode func([]byte) *T) (*T, bool) {
	path := s.path(kind, key)
	if bp, err := readPooled(path); err == nil {
		v, n := decode(*bp), len(*bp)
		releaseRead(bp)
		if v != nil {
			hits.Add(1)
			s.bytesLoaded.Add(int64(n))
			if obs.Store.Enabled(obs.LevelDebug) {
				obs.Store.Log(context.Background(), obs.LevelDebug, "artifact hit",
					"kind", string(kind), "benchmark", name, "bytes", n)
			}
			return v, true
		}
		s.reject(path)
	}
	if v := fetchFromPeer(s, kind, key, decode); v != nil {
		return v, true
	}
	misses.Add(1)
	return nil, false
}

// fetchFromPeer asks the peer tier for an artifact's raw bytes and
// validates them with decode. Accepted bytes are persisted verbatim —
// the peer's codec checksum survives the hop — so the next local load
// is a plain hit.
func fetchFromPeer[T any](s *Store, kind ArtifactKind, key string, decode func([]byte) *T) *T {
	if s.peerFetch == nil {
		return nil
	}
	b, err := s.peerFetch(kind, key)
	var v *T
	if err == nil && len(b) > 0 {
		v = decode(b)
	}
	if v == nil {
		s.peerMisses.Add(1)
		if obs.Store.Enabled(obs.LevelDebug) {
			obs.Store.Log(context.Background(), obs.LevelDebug, "peer fetch miss",
				"kind", string(kind), "key", key, "err", err)
		}
		return nil
	}
	s.peerHits.Add(1)
	s.peerBytes.Add(int64(len(b)))
	_ = s.save(kind, key, func() []byte { return b })
	if obs.Store.Enabled(obs.LevelDebug) {
		obs.Store.Log(context.Background(), obs.LevelDebug, "peer fetch hit",
			"kind", string(kind), "key", key, "bytes", len(b))
	}
	return v
}

// LoadRecording returns the persisted frontend recording for
// (spec, cfg), or ok=false on any miss: absent, corrupt, stale, or
// captured under different frontend parameters. Damaged files are
// removed so the caller's recompute-and-persist overwrites them. When a
// peer-fetch tier is installed, a local miss tries the fleet before
// giving up — a peer hit is served (and persisted) as if it were local.
func (s *Store) LoadRecording(spec trace.Spec, cfg sim.Config) (*sim.Recording, bool) {
	h := codec.SpecHash(spec)
	return load(s, KindRecordings, recordingKey(h, cfg), spec.Name,
		&s.recordingHits, &s.recordingMisses,
		func(b []byte) *sim.Recording { return decodeRecording(b, spec.Name, h, cfg) })
}

// SaveRecording persists a frontend recording. Errors are returned for
// observability but are safe to ignore: the store is a cache, and the
// counters record what happened either way.
func (s *Store) SaveRecording(spec trace.Spec, cfg sim.Config, rec *sim.Recording) error {
	h := codec.SpecHash(spec)
	return s.save(KindRecordings, recordingKey(h, cfg), func() []byte {
		return codec.EncodeRecording(rec, h)
	})
}

// LoadProfile returns the persisted single-core profile for
// (spec, cfg, opts), or ok=false on any miss. Like LoadRecording, a
// local miss falls through to the peer-fetch tier when one is installed.
func (s *Store) LoadProfile(spec trace.Spec, cfg sim.Config, opts sim.ProfileOptions) (*profile.Profile, bool) {
	h := codec.SpecHash(spec)
	return load(s, KindProfiles, profileKey(h, cfg, opts), spec.Name,
		&s.profileHits, &s.profileMisses,
		func(b []byte) *profile.Profile { return decodeProfile(b, spec.Name, h, cfg) })
}

// SaveProfile persists a single-core profile.
func (s *Store) SaveProfile(spec trace.Spec, cfg sim.Config, opts sim.ProfileOptions, p *profile.Profile) error {
	h := codec.SpecHash(spec)
	return s.save(KindProfiles, profileKey(h, cfg, opts), func() []byte {
		return codec.EncodeProfile(p, h)
	})
}

// save persists one artifact. A content-addressed file that already
// exists is skipped outright. Otherwise the payload is encoded, staged
// in a uniquely named temp file and renamed into place. Rename is
// atomic, so readers never observe a torn artifact, and writers racing
// on one key touch disjoint temp files and each publish only complete,
// identical content: the last rename wins. A failed save leaves
// neither an artifact nor a temp file behind.
func (s *Store) save(kind ArtifactKind, key string, encode func() []byte) error {
	path := s.path(kind, key)
	if _, err := os.Stat(path); err == nil {
		s.saveSkips.Add(1)
		return nil
	}
	if err := s.publish(path, encode); err != nil {
		s.saveErrors.Add(1)
		if obs.Store.Enabled(obs.LevelError) {
			obs.Store.Log(context.Background(), obs.LevelError, "save failed",
				"path", path, "err", err)
		}
		return fmt.Errorf("store: %w", err)
	}
	s.saves.Add(1)
	if obs.Store.Enabled(obs.LevelDebug) {
		obs.Store.Log(context.Background(), obs.LevelDebug, "artifact saved",
			"path", path)
	}
	return nil
}

// publish writes path through a temp file and an atomic rename. The
// kind's directory is created by the first save that finds it missing.
func (s *Store) publish(path string, encode func() []byte) error {
	dir, pattern := filepath.Dir(path), filepath.Base(path)+".*"+tmpExt
	tf, err := s.fs.CreateTemp(dir, pattern)
	if errors.Is(err, fs.ErrNotExist) {
		if err = s.fs.MkdirAll(dir, 0o755); err == nil {
			tf, err = s.fs.CreateTemp(dir, pattern)
		}
	}
	if err != nil {
		return err
	}
	tmp := tf.Name()
	_ = tf.Chmod(0o644) // CreateTemp defaults to 0600; artifacts are shareable
	b := encode()
	n, err := tf.Write(b)
	if err == nil && n != len(b) {
		err = io.ErrShortWrite
	}
	if cerr := tf.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Rename(tmp, path)
	}
	if err != nil {
		_ = s.fs.Remove(tmp)
	}
	return err
}

// Entry describes one artifact on disk.
type Entry struct {
	Path      string
	SizeBytes int64
	ModTime   time.Time
	// Header fields, populated when the file decoded cleanly.
	Kind           codec.Kind
	Benchmark      string
	LLC            string
	TraceLength    int64
	IntervalLength int64
	// Err is the decode failure, when any: corrupt data, version skew.
	Err error
}

// walk visits every artifact file (any format version) under the store.
func (s *Store) walk(fn func(path string, info fs.FileInfo) error) error {
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		ext := filepath.Ext(path)
		if ext != recordingExt && ext != profileExt {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil // raced with a concurrent GC; skip
		}
		return fn(path, info)
	})
	if os.IsNotExist(err) {
		return nil // an empty store lists as empty
	}
	return err
}

// List enumerates the store's artifacts with their decoded identity
// headers, sorted by path. Undecodable files are included with Err set
// rather than hidden, so `mppm cache ls` shows damage instead of
// silently skipping it.
func (s *Store) List() ([]Entry, error) {
	var entries []Entry
	err := s.walk(func(path string, info fs.FileInfo) error {
		e := Entry{Path: path, SizeBytes: info.Size(), ModTime: info.ModTime()}
		if b, err := os.ReadFile(path); err != nil {
			e.Err = err
		} else if hdr, err := codec.PeekHeader(b); err != nil {
			e.Err = err
		} else {
			e.Kind = hdr.Kind
			e.Benchmark = hdr.Benchmark
			e.LLC = hdr.LLC.Name
			e.TraceLength = hdr.TraceLength
			e.IntervalLength = hdr.IntervalLength
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	return entries, nil
}

// Verify fully decodes every artifact — payload, checksum and semantic
// validation, the same gauntlet a load-through hit passes — and returns
// all entries plus the number that failed. It never deletes anything;
// pair it with GC or manual removal.
func (s *Store) Verify() (entries []Entry, bad int, err error) {
	err = s.walk(func(path string, info fs.FileInfo) error {
		e := Entry{Path: path, SizeBytes: info.Size(), ModTime: info.ModTime()}
		b, rerr := os.ReadFile(path)
		if rerr != nil {
			e.Err = rerr
		} else {
			switch filepath.Ext(path) {
			case recordingExt:
				var hdr codec.Header
				if _, hdr, e.Err = codec.DecodeRecording(b); e.Err == nil {
					e.Kind, e.Benchmark = hdr.Kind, hdr.Benchmark
					e.TraceLength, e.IntervalLength = hdr.TraceLength, hdr.IntervalLength
				}
			case profileExt:
				var hdr codec.Header
				if _, hdr, e.Err = codec.DecodeProfile(b); e.Err == nil {
					e.Kind, e.Benchmark, e.LLC = hdr.Kind, hdr.Benchmark, hdr.LLC.Name
					e.TraceLength, e.IntervalLength = hdr.TraceLength, hdr.IntervalLength
				}
			}
		}
		if e.Err != nil {
			bad++
		}
		entries = append(entries, e)
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	return entries, bad, nil
}

// SizeBytes totals the artifact bytes on disk (all format versions).
func (s *Store) SizeBytes() (int64, error) {
	var total int64
	err := s.walk(func(_ string, info fs.FileInfo) error {
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return total, nil
}

// GC deletes artifacts, oldest modification time first, until the store
// holds at most maxBytes. Artifacts from older format versions age out
// naturally: they stop being touched the moment the codec is bumped, so
// they are the first candidates. Stale temp files are always swept. GC
// is safe to run while replicas are serving: a concurrently
// loaded-then-deleted artifact is simply recomputed on the next miss.
func (s *Store) GC(maxBytes int64) (removed int, freed int64, err error) {
	if maxBytes < 0 {
		return 0, 0, fmt.Errorf("store: negative GC budget %d", maxBytes)
	}
	// Sweep debris regardless of the budget. Temp files are age-gated:
	// a young .tmp belongs to an in-flight save on another replica (GC
	// must be safe to run while replicas serve), and only a crashed
	// writer leaves one past the stale age.
	_ = filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.HasSuffix(path, tmpExt) && olderThan(d, staleTmpAge) {
			_ = os.Remove(path)
		}
		return nil
	})

	type victim struct {
		path string
		size int64
		mod  time.Time
	}
	var victims []victim
	var total int64
	werr := s.walk(func(path string, info fs.FileInfo) error {
		victims = append(victims, victim{path, info.Size(), info.ModTime()})
		total += info.Size()
		return nil
	})
	if werr != nil {
		return 0, 0, fmt.Errorf("store: %w", werr)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].mod.Before(victims[j].mod) })
	for _, v := range victims {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(v.path); err != nil {
			continue
		}
		total -= v.size
		freed += v.size
		removed++
	}
	return removed, freed, nil
}

func olderThan(d fs.DirEntry, age time.Duration) bool {
	info, err := d.Info()
	return err == nil && time.Since(info.ModTime()) > age
}
