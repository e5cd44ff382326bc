package codec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/cache"
	"repro/internal/profile"
	"repro/internal/sdc"
	"repro/internal/sim"
	"repro/internal/trace"
)

func testConfig(t testing.TB) sim.Config {
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

func testRecording(t testing.TB) *sim.Recording {
	t.Helper()
	rec, err := sim.RecordSpec(context.Background(), mustSpec(t, "mcf"), testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Accesses() == 0 {
		t.Fatal("test recording has no LLC accesses")
	}
	return rec
}

func equalRecordingData(t *testing.T, got, want sim.RecordingData) {
	t.Helper()
	if got.Benchmark != want.Benchmark || got.TraceLength != want.TraceLength ||
		got.Interval != want.Interval || got.CPU != want.CPU ||
		got.L1D != want.L1D || got.L2 != want.L2 ||
		got.EndInstr != want.EndInstr || got.EndBase != want.EndBase {
		t.Fatalf("scalar fields differ:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Addrs) != len(want.Addrs) || len(got.CloseBefore) != len(want.CloseBefore) {
		t.Fatalf("lengths differ: %d/%d accesses, %d/%d closes",
			len(got.Addrs), len(want.Addrs), len(got.CloseBefore), len(want.CloseBefore))
	}
	for i := range want.Addrs {
		if got.Addrs[i] != want.Addrs[i] || got.Flags[i] != want.Flags[i] ||
			got.Instr[i] != want.Instr[i] || got.Base[i] != want.Base[i] {
			t.Fatalf("access %d differs", i)
		}
	}
	for i := range want.CloseBefore {
		if got.CloseBefore[i] != want.CloseBefore[i] ||
			got.CloseInstr[i] != want.CloseInstr[i] ||
			got.CloseBase[i] != want.CloseBase[i] {
			t.Fatalf("close %d differs", i)
		}
	}
}

// TestRecordingRoundTrip proves encode/decode is lossless field for
// field, including every float64 bit.
func TestRecordingRoundTrip(t *testing.T) {
	rec := testRecording(t)
	spec := mustSpec(t, "mcf")
	b := EncodeRecording(rec, SpecHash(spec))
	got, hdr, err := DecodeRecording(b)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != KindRecording || hdr.Benchmark != "mcf" || hdr.SpecHash != SpecHash(spec) {
		t.Fatalf("header = %+v", hdr)
	}
	equalRecordingData(t, got.Data(), rec.Data())
}

// TestRecordingRoundTripReplayIdentity is the codec's slice of the
// differential oracle: a decoded recording must replay bit-identically
// to the original recording (the store-level test extends this to the
// direct ProfileSource path across the full suite).
func TestRecordingRoundTripReplayIdentity(t *testing.T) {
	rec := testRecording(t)
	cfg := testConfig(t)
	b := EncodeRecording(rec, 0)
	got, _, err := DecodeRecording(b)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := rec.Replay(ctx, cfg, sim.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Replay(ctx, cfg, sim.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(have.Intervals) != len(want.Intervals) {
		t.Fatalf("%d intervals, want %d", len(have.Intervals), len(want.Intervals))
	}
	for i := range want.Intervals {
		w, h := want.Intervals[i], have.Intervals[i]
		if w.Instructions != h.Instructions || w.Cycles != h.Cycles ||
			w.MemStall != h.MemStall || w.LLCAccesses != h.LLCAccesses {
			t.Fatalf("interval %d: %+v != %+v", i, h, w)
		}
	}
}

// TestProfileRoundTrip proves profile encode/decode is bit-lossless.
func TestProfileRoundTrip(t *testing.T) {
	rec := testRecording(t)
	p, err := rec.Replay(context.Background(), testConfig(t), sim.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := EncodeProfile(p, 42)
	got, hdr, err := DecodeProfile(b)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != KindProfile || hdr.SpecHash != 42 || hdr.LLC != p.Meta.LLC {
		t.Fatalf("header = %+v", hdr)
	}
	if got.Meta != p.Meta {
		t.Fatalf("meta = %+v, want %+v", got.Meta, p.Meta)
	}
	if len(got.Intervals) != len(p.Intervals) {
		t.Fatalf("%d intervals, want %d", len(got.Intervals), len(p.Intervals))
	}
	for i := range p.Intervals {
		w, g := p.Intervals[i], got.Intervals[i]
		if w.Instructions != g.Instructions || w.Cycles != g.Cycles ||
			w.MemStall != g.MemStall || w.LLCAccesses != g.LLCAccesses {
			t.Fatalf("interval %d differs", i)
		}
		for k := range w.SDC {
			if w.SDC[k] != g.SDC[k] {
				t.Fatalf("interval %d SDC[%d] differs", i, k)
			}
		}
	}
}

// TestDecodeProfileRejectsNonFinite: a well-formed, correctly
// checksummed profile artifact whose counters are NaN or infinite is
// corrupt — DecodeProfile promises a profile the model can run.
func TestDecodeProfileRejectsNonFinite(t *testing.T) {
	rec := testRecording(t)
	p, err := rec.Replay(context.Background(), testConfig(t), sim.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1)} {
		bad := &profile.Profile{Meta: p.Meta, Intervals: append([]profile.Interval(nil), p.Intervals...)}
		bad.Intervals[1].Cycles = v
		if _, _, err := DecodeProfile(EncodeProfile(bad, 42)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("cycles %v: DecodeProfile = %v, want ErrCorrupt", v, err)
		}
	}
}

// TestPeekHeader reads identity without the payload, for both kinds.
func TestPeekHeader(t *testing.T) {
	rec := testRecording(t)
	spec := mustSpec(t, "mcf")
	hb, err := PeekHeader(EncodeRecording(rec, SpecHash(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if hb.Kind != KindRecording || hb.Benchmark != "mcf" || hb.TraceLength != 200_000 {
		t.Fatalf("recording header = %+v", hb)
	}
	p, err := rec.Replay(context.Background(), testConfig(t), sim.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hp, err := PeekHeader(EncodeProfile(p, SpecHash(spec)))
	if err != nil {
		t.Fatal(err)
	}
	if hp.Kind != KindProfile || hp.LLC != p.Meta.LLC {
		t.Fatalf("profile header = %+v", hp)
	}
}

// TestDecodeRejectsDamage walks the corruption taxonomy: truncation at
// every boundary region, single bit flips, version skew, kind
// confusion and bad magic must all error — never panic, never return a
// wrong artifact.
func TestDecodeRejectsDamage(t *testing.T) {
	rec := testRecording(t)
	b := EncodeRecording(rec, 7)

	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 1, 4, 6, 7, 16, len(b) / 2, len(b) - 9, len(b) - 1} {
			if _, _, err := DecodeRecording(b[:n]); err == nil {
				t.Fatalf("truncation to %d bytes decoded", n)
			}
		}
	})
	t.Run("bit flips", func(t *testing.T) {
		// Flip one bit in every region of the file: envelope, header,
		// payload, checksum.
		for _, off := range []int{0, 5, 6, 10, len(b) / 3, 2 * len(b) / 3, len(b) - 8, len(b) - 1} {
			mut := append([]byte(nil), b...)
			mut[off] ^= 0x10
			if _, _, err := DecodeRecording(mut); err == nil {
				t.Fatalf("bit flip at %d decoded", off)
			}
		}
	})
	t.Run("version skew", func(t *testing.T) {
		mut := append([]byte(nil), b...)
		mut[4], mut[5] = 0xFF, 0x7F
		_, _, err := DecodeRecording(mut)
		if !errors.Is(err, ErrVersion) {
			t.Fatalf("version skew error = %v, want ErrVersion", err)
		}
	})
	t.Run("kind confusion", func(t *testing.T) {
		if _, _, err := DecodeProfile(b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("profile decode of recording = %v, want ErrCorrupt", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), b...)
		mut[0] = 'X'
		if _, _, err := DecodeRecording(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("bad magic error = %v, want ErrCorrupt", err)
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		mut := append(append([]byte(nil), b...), 0, 0, 0)
		if _, _, err := DecodeRecording(mut); err == nil {
			t.Fatal("trailing garbage decoded")
		}
	})
	t.Run("cut inside trailer", func(t *testing.T) {
		for n := len(b) - trailerLen + 1; n < len(b); n++ {
			if _, _, err := DecodeRecording(b[:n]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut to %d of %d bytes: %v, want ErrCorrupt", n, len(b), err)
			}
		}
	})
	t.Run("format v1", func(t *testing.T) {
		if _, _, err := DecodeRecording(v1File(b)); !errors.Is(err, ErrVersion) {
			t.Fatalf("v1 file error = %v, want ErrVersion", err)
		}
	})
}

// v1File rewrites an encoded artifact the way format version 1 sealed
// it: version field 1 and a trailing crc64-ECMA (uint64 LE).
func v1File(b []byte) []byte {
	v1 := append([]byte(nil), b[:len(b)-trailerLen]...)
	binary.LittleEndian.PutUint16(v1[4:6], 1)
	return binary.LittleEndian.AppendUint64(v1, crc64.Checksum(v1, crc64.MakeTable(crc64.ECMA)))
}

// wantDamageErr is the error a decode must return once an artifact's
// bytes have changed from offset lo on: the magic is checked first,
// then the version, then the checksum.
func wantDamageErr(lo int) error {
	if lo < 4 {
		return ErrCorrupt
	}
	if lo < 6 {
		return ErrVersion
	}
	return ErrCorrupt
}

// checkDamage applies every single-bit flip and one full-width 32-bit
// burst at each of the byte offsets offs to b in place, restoring b after each, and
// requires decode to reject every damaged copy with the error
// wantDamageErr names. CRC-32C detects every single-bit error and every
// burst of up to 32 bits, so no damage of either shape may decode.
func checkDamage(t *testing.T, b []byte, offs []int, decode func([]byte) (bool, error)) {
	t.Helper()
	try := func(off int, what string) {
		t.Helper()
		ok, err := decode(b)
		if want := wantDamageErr(off); ok || !errors.Is(err, want) {
			t.Fatalf("%s: decoded=%v err=%v, want %v", what, ok, err, want)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, off := range offs {
		for bit := 0; bit < 8; bit++ {
			b[off] ^= 1 << bit
			try(off, fmt.Sprintf("bit %d of byte %d", bit, off))
			b[off] ^= 1 << bit
		}
		if off+4 > len(b) {
			continue
		}
		// A burst spanning all 32 bits: the first bit of byte off and
		// the last of byte off+3 always flip, the ones between at random.
		burst := rng.Uint32() | 1 | 1<<31
		flip := func() {
			for k := 0; k < 4; k++ {
				b[off+k] ^= byte(burst >> (8 * k))
			}
		}
		flip()
		try(off, fmt.Sprintf("burst %#08x at byte %d", burst, off))
		flip()
	}
}

// TestChecksumCatchesDamage pins the trailer's detection guarantee on
// both artifact kinds: every single-bit flip, and one full-width 32-bit
// burst per byte offset, of a whole profile and of a recording's header
// plus a strided sample of its payload must fail to decode with ErrCorrupt, or ErrVersion when
// the damage reaches the version field but not the magic.
func TestChecksumCatchesDamage(t *testing.T) {
	rec := testRecording(t)
	p, err := rec.Replay(context.Background(), testConfig(t), sim.ProfileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("profile", func(t *testing.T) {
		b := EncodeProfile(p, 7)
		offs := make([]int, len(b))
		for i := range offs {
			offs[i] = i
		}
		checkDamage(t, b, offs, func(b []byte) (bool, error) {
			got, _, err := DecodeProfile(b)
			return got != nil, err
		})
	})
	t.Run("recording", func(t *testing.T) {
		b := EncodeRecording(rec, 7)
		var offs []int
		const header, stride = 256, 97
		for i := 0; i < len(b); i++ {
			if i < header || i%stride == 0 || i >= len(b)-2*trailerLen {
				offs = append(offs, i)
			}
		}
		checkDamage(t, b, offs, func(b []byte) (bool, error) {
			got, _, err := DecodeRecording(b)
			return got != nil, err
		})
	})
}

// TestDecodeProfileAllocs pins the decoded profile's shape: one SDC
// backing array per profile, so a decode's allocation count does not
// grow with the interval count, and each interval's SDC is capped at
// its own buckets, so appending to one interval's SDC never overwrites
// the next one's.
func TestDecodeProfileAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		b := EncodeProfile(syntheticProfile(n, 16), 7)
		if _, _, err := DecodeProfile(b); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, _, err := DecodeProfile(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a20, a200 := allocs(20), allocs(200); a20 != a200 {
		t.Errorf("DecodeProfile allocs: %v for 20 intervals, %v for 200", a20, a200)
	}

	p, _, err := DecodeProfile(EncodeProfile(syntheticProfile(3, 4), 7))
	if err != nil {
		t.Fatal(err)
	}
	next := append(sdc.Counters(nil), p.Intervals[1].SDC...)
	if grown := append(p.Intervals[0].SDC, 99); &grown[0] == &p.Intervals[0].SDC[0] {
		t.Fatal("appending to interval 0's SDC grew it in place")
	}
	for k, v := range p.Intervals[1].SDC {
		if v != next[k] {
			t.Fatalf("appending to interval 0's SDC changed interval 1's SDC[%d]: %v, was %v", k, v, next[k])
		}
	}
}

// syntheticProfile builds a valid n-interval profile over a ways-way
// LLC with distinct values in every counter.
func syntheticProfile(n, ways int) *profile.Profile {
	llc := cache.LLCConfigs()[0]
	llc.Ways = ways
	p := &profile.Profile{Meta: profile.Meta{
		Benchmark:      "synthetic",
		TraceLength:    int64(n) * 1000,
		IntervalLength: 1000,
		LLC:            llc,
	}}
	for i := 0; i < n; i++ {
		counters := make(sdc.Counters, ways+1)
		for k := range counters {
			counters[k] = float64(i*(ways+1) + k)
		}
		p.Intervals = append(p.Intervals, profile.Interval{
			Instructions: 1000,
			Cycles:       float64(2000 + i),
			MemStall:     float64(300 + i),
			LLCAccesses:  float64(40 + i),
			SDC:          counters,
		})
	}
	return p
}

// TestSpecHashSensitivity: the hash must move when any stream-shaping
// field moves, and must not depend on the name alone.
func TestSpecHashSensitivity(t *testing.T) {
	spec := mustSpec(t, "mcf")
	base := SpecHash(spec)

	mut := spec
	mut.Seed++
	if SpecHash(mut) == base {
		t.Fatal("seed change did not move the hash")
	}
	mut = spec
	mut.Regions = append([]trace.Region(nil), spec.Regions...)
	mut.Regions[0].Size += 64
	if SpecHash(mut) == base {
		t.Fatal("region change did not move the hash")
	}
	mut = spec
	mut.Phases = append([]trace.Phase(nil), spec.Phases...)
	mut.Phases[0].BaseCPI *= 1.5
	if SpecHash(mut) == base {
		t.Fatal("phase change did not move the hash")
	}
}

// FuzzCodecRoundTrip fuzzes the decoders with arbitrary bytes: they
// must never panic, and any input that decodes cleanly must re-encode
// and re-decode to the same artifact (the round-trip property `mppm
// cache verify` relies on). Seeds cover both kinds plus pre-damaged
// variants of each: cut in half, cut inside the 4-byte trailer, a bit
// flip, version skew, and the same artifact as format version 1 sealed
// it, with an 8-byte crc64 trailer.
func FuzzCodecRoundTrip(f *testing.F) {
	cfg := sim.DefaultConfig(cache.LLCConfigs()[0])
	cfg.TraceLength = 50_000
	cfg.IntervalLength = 10_000
	spec, err := trace.ByName("mcf")
	if err != nil {
		f.Fatal(err)
	}
	rec, err := sim.RecordSpec(context.Background(), spec, cfg)
	if err != nil {
		f.Fatal(err)
	}
	rb := EncodeRecording(rec, SpecHash(spec))
	f.Add(rb)
	p, err := rec.Replay(context.Background(), cfg, sim.ProfileOptions{})
	if err != nil {
		f.Fatal(err)
	}
	pb := EncodeProfile(p, SpecHash(spec))
	f.Add(pb)
	for _, seed := range [][]byte{rb, pb} {
		trunc := seed[:len(seed)/2]
		f.Add(append([]byte(nil), trunc...))
		flip := append([]byte(nil), seed...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
		skew := append([]byte(nil), seed...)
		skew[4] ^= 0xFF
		f.Add(skew)
		f.Add(append([]byte(nil), seed[:len(seed)-trailerLen/2]...))
		f.Add(v1File(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, hdr, err := DecodeRecording(data); err == nil {
			again, hdr2, err := DecodeRecording(EncodeRecording(rec, hdr.SpecHash))
			if err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			if hdr2 != hdr {
				t.Fatalf("header drift: %+v != %+v", hdr2, hdr)
			}
			_ = again
		}
		if p, hdr, err := DecodeProfile(data); err == nil {
			_, hdr2, err := DecodeProfile(EncodeProfile(p, hdr.SpecHash))
			if err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			if hdr2 != hdr {
				t.Fatalf("header drift: %+v != %+v", hdr2, hdr)
			}
		}
		_, _ = PeekHeader(data)
	})
}
