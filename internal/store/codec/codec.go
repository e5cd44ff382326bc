// Package codec implements the versioned binary on-disk format of the
// artifact store: compact encodings of profiling-frontend recordings
// (sim.Recording) and single-core profiles (profile.Profile).
//
// Every artifact is one self-contained file:
//
//	magic "MPPM" | format version (uint16 LE) | kind (byte)
//	header: benchmark name, spec hash, trace identity, capture params
//	payload
//	crc64-ECMA of everything above (uint64 LE)
//
// The header carries enough identity to detect stale artifacts without
// decoding the payload (PeekHeader): the benchmark's spec hash, the
// trace length and profiling interval, and the capture parameters (CPU
// timing model plus cache geometries) the artifact was produced under.
//
// The recording payload is dominated by the LLC access stream, so the
// monotonic columns are delta-encoded as varints (addresses as zigzag
// deltas, instruction counters as unsigned deltas) and only the float64
// base-cycle column is stored as raw bits — bit-exactness is the whole
// point of the record/replay pipeline, so floats are never re-quantized.
// The interval close schedule is delta-encoded the same way.
//
// The encoding primitives (varints, raw-bit floats, length-prefixed
// strings, the trailing checksum, the sticky-error decoder) live in
// internal/binenc, shared with the eval wire protocol (internal/wire).
//
// Decoding is strict: a wrong magic or a failed checksum yields
// ErrCorrupt, a version skew yields ErrVersion, and structural nonsense
// that survives the checksum (hand-crafted files) is rejected by the
// validation layers above (sim.RecordingFromData, profile.Validate).
// Decode never panics on arbitrary input (FuzzCodecRoundTrip).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"math"

	"repro/internal/binenc"
	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/trace"
)

// FormatVersion is the on-disk format version. Bump it on any change to
// the encoding below; the store keeps each version in its own directory,
// so a version bump simply starts a fresh tree and leaves old artifacts
// to garbage collection.
const FormatVersion = 1

// Kind tags the artifact type carried by a file.
type Kind uint8

const (
	// KindRecording is a profiling-frontend recording (sim.Recording).
	KindRecording Kind = 1
	// KindProfile is a single-core profile (profile.Profile).
	KindProfile Kind = 2
)

// String returns the kind's display name.
func (k Kind) String() string {
	switch k {
	case KindRecording:
		return "recording"
	case KindProfile:
		return "profile"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

var (
	// ErrCorrupt marks an artifact that failed structural or checksum
	// validation.
	ErrCorrupt = errors.New("codec: corrupt artifact")
	// ErrVersion marks an artifact written under a different format
	// version.
	ErrVersion = errors.New("codec: unsupported format version")
)

var magic = [4]byte{'M', 'P', 'P', 'M'}

// Header is the self-describing identity of an artifact, readable
// without decoding the payload.
type Header struct {
	Version uint16
	Kind    Kind
	// Benchmark and SpecHash identify the trace: the workload's name and
	// a hash over its full synthetic spec (regions, phases, seed), so an
	// edited benchmark definition invalidates its artifacts.
	Benchmark string
	SpecHash  uint64
	// TraceLength and IntervalLength are the capture scale.
	TraceLength    int64
	IntervalLength int64
	// CPU is the core timing model the artifact was captured under.
	CPU cpu.Params
	// LLC names the shared-cache geometry (profiles only; recordings are
	// LLC-independent by construction and leave it zero).
	LLC cache.Config
}

// SpecHash hashes a synthetic benchmark spec — every field that shapes
// the generated reference stream — so artifacts are invalidated when a
// benchmark's definition changes, not just when it is renamed.
func SpecHash(spec trace.Spec) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(v float64) { w64(math.Float64bits(v)) }
	h.Write([]byte(spec.Name))
	w64(spec.Seed)
	w64(uint64(len(spec.Regions)))
	for _, r := range spec.Regions {
		w64(uint64(r.Kind))
		w64(r.Size)
		w64(r.Stride)
		if r.Dependent {
			w64(1)
		} else {
			w64(0)
		}
	}
	w64(uint64(len(spec.Phases)))
	for _, p := range spec.Phases {
		wf(p.Frac)
		wf(p.BaseCPI)
		wf(p.RefsPerKI)
		wf(p.WriteFrac)
		w64(uint64(len(p.Weights)))
		for _, w := range p.Weights {
			wf(w)
		}
	}
	return h.Sum64()
}

func encCacheConfig(e *binenc.Enc, c cache.Config) {
	e.Str(c.Name)
	e.Varint(c.SizeBytes)
	e.Varint(int64(c.Ways))
	e.Varint(c.LineSize)
	e.Varint(int64(c.LatencyCycles))
}

func encCPUParams(e *binenc.Enc, p cpu.Params) {
	e.Varint(p.ROBWindow)
	e.F64(p.HiddenLatency)
	e.F64(p.L2HitStall)
	e.F64(p.MemLatency)
	e.F64(p.OverlapFactor)
}

func decCacheConfig(d *binenc.Dec) cache.Config {
	return cache.Config{
		Name:          d.Str(),
		SizeBytes:     d.Varint(),
		Ways:          int(d.Varint()),
		LineSize:      d.Varint(),
		LatencyCycles: int(d.Varint()),
	}
}

func decCPUParams(d *binenc.Dec) cpu.Params {
	return cpu.Params{
		ROBWindow:     d.Varint(),
		HiddenLatency: d.F64(),
		L2HitStall:    d.F64(),
		MemLatency:    d.F64(),
		OverlapFactor: d.F64(),
	}
}

// open validates the envelope (length, magic, version, checksum) and
// returns a decoder positioned after the kind byte, plus the kind.
func open(b []byte) (*binenc.Dec, Kind, error) {
	const minFile = 4 + 2 + 1 + 8
	if len(b) < minFile {
		return nil, 0, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, len(b))
	}
	if [4]byte(b[:4]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != FormatVersion {
		return nil, 0, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, v, FormatVersion)
	}
	body, sum := b[:len(b)-8], binary.LittleEndian.Uint64(b[len(b)-8:])
	if crc64.Checksum(body, binenc.CRCTable) != sum {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	d := &binenc.Dec{B: body, Off: 6, Sentinel: ErrCorrupt}
	k := Kind(d.ByteVal())
	if k != KindRecording && k != KindProfile {
		return nil, 0, fmt.Errorf("%w: unknown artifact kind %d", ErrCorrupt, uint8(k))
	}
	return d, k, nil
}

// encHeader encodes the identity section shared by both kinds.
func encHeader(e *binenc.Enc, h Header) {
	e.Str(h.Benchmark)
	e.U64(h.SpecHash)
	e.Varint(h.TraceLength)
	e.Varint(h.IntervalLength)
	encCPUParams(e, h.CPU)
}

func decHeader(d *binenc.Dec, kind Kind) Header {
	h := Header{Version: FormatVersion, Kind: kind}
	h.Benchmark = d.Str()
	h.SpecHash = d.U64()
	h.TraceLength = d.Varint()
	h.IntervalLength = d.Varint()
	h.CPU = decCPUParams(d)
	return h
}

// EncodeRecording serializes a profiling-frontend recording. specHash
// should be SpecHash of the benchmark spec the recording was captured
// from (zero for recordings of arbitrary trace sources).
func EncodeRecording(rec *sim.Recording, specHash uint64) []byte {
	d := rec.Data()
	e := &binenc.Enc{B: make([]byte, 0, 128+12*len(d.Addrs))}
	e.B = append(e.B, magic[:]...)
	e.U16(FormatVersion)
	e.Byte(byte(KindRecording))
	encHeader(e, Header{
		Benchmark:      d.Benchmark,
		SpecHash:       specHash,
		TraceLength:    d.TraceLength,
		IntervalLength: d.Interval,
		CPU:            d.CPU,
	})
	encCacheConfig(e, d.L1D)
	encCacheConfig(e, d.L2)

	// The access stream: monotonic columns as deltas, floats as raw bits.
	e.Uvarint(uint64(len(d.Addrs)))
	var prevAddr uint64
	for _, a := range d.Addrs {
		e.Varint(int64(a - prevAddr)) // zigzag delta; wraparound-safe
		prevAddr = a
	}
	e.B = append(e.B, d.Flags...)
	var prevInstr int64
	for _, v := range d.Instr {
		e.Uvarint(uint64(v - prevInstr))
		prevInstr = v
	}
	for _, v := range d.Base {
		e.F64(v)
	}

	// The interval close schedule.
	e.Uvarint(uint64(len(d.CloseBefore)))
	var prevBefore int
	for _, v := range d.CloseBefore {
		e.Uvarint(uint64(v - prevBefore))
		prevBefore = v
	}
	prevInstr = 0
	for _, v := range d.CloseInstr {
		e.Uvarint(uint64(v - prevInstr))
		prevInstr = v
	}
	for _, v := range d.CloseBase {
		e.F64(v)
	}
	e.Varint(d.EndInstr)
	e.F64(d.EndBase)
	return binenc.AppendChecksum(e.B)
}

// DecodeRecording deserializes and validates a recording artifact,
// returning the rebuilt recording and its identity header. Corrupt
// files (checksum, structure, replay invariants) yield ErrCorrupt;
// version skew yields ErrVersion.
func DecodeRecording(b []byte) (*sim.Recording, Header, error) {
	d, kind, err := open(b)
	if err != nil {
		return nil, Header{}, err
	}
	if kind != KindRecording {
		return nil, Header{}, fmt.Errorf("%w: artifact is a %v, not a recording", ErrCorrupt, kind)
	}
	h := decHeader(d, kind)
	data := sim.RecordingData{
		Benchmark:   h.Benchmark,
		TraceLength: h.TraceLength,
		Interval:    h.IntervalLength,
		CPU:         h.CPU,
		L1D:         decCacheConfig(d),
		L2:          decCacheConfig(d),
	}

	// Each access needs at least 1 (addr) + 1 (flag) + 1 (instr) + 8
	// (base) bytes.
	n := d.Count(11)
	if d.Err() == nil && n > 0 {
		data.Addrs = make([]uint64, n)
		data.Flags = make([]byte, n)
		data.Instr = make([]int64, n)
		data.Base = make([]float64, n)
		var addr uint64
		for i := 0; i < n; i++ {
			addr += uint64(d.Varint())
			data.Addrs[i] = addr
		}
		copy(data.Flags, d.Bytes(n))
		var instr int64
		for i := 0; i < n; i++ {
			instr += int64(d.Uvarint())
			data.Instr[i] = instr
		}
		for i := 0; i < n; i++ {
			data.Base[i] = d.F64()
		}
	}
	// Each close needs at least 1 + 1 + 8 bytes.
	nc := d.Count(10)
	if d.Err() == nil && nc > 0 {
		data.CloseBefore = make([]int, nc)
		data.CloseInstr = make([]int64, nc)
		data.CloseBase = make([]float64, nc)
		var before uint64
		for i := 0; i < nc; i++ {
			before += d.Uvarint()
			if before > uint64(n) {
				d.Fail("close index out of range")
				break
			}
			data.CloseBefore[i] = int(before)
		}
		var instr int64
		for i := 0; i < nc; i++ {
			instr += int64(d.Uvarint())
			data.CloseInstr[i] = instr
		}
		for i := 0; i < nc; i++ {
			data.CloseBase[i] = d.F64()
		}
	}
	data.EndInstr = d.Varint()
	data.EndBase = d.F64()
	if err := d.Err(); err != nil {
		return nil, Header{}, err
	}
	if d.Remaining() != 0 {
		return nil, Header{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	rec, err := sim.RecordingFromData(data)
	if err != nil {
		return nil, Header{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rec, h, nil
}

// EncodeProfile serializes a single-core profile. specHash identifies
// the benchmark spec the profile was measured from (zero when unknown).
func EncodeProfile(p *profile.Profile, specHash uint64) []byte {
	ways := p.Meta.LLC.Ways
	e := &binenc.Enc{B: make([]byte, 0, 256+len(p.Intervals)*(32+8*(ways+1)))}
	e.B = append(e.B, magic[:]...)
	e.U16(FormatVersion)
	e.Byte(byte(KindProfile))
	encHeader(e, Header{
		Benchmark:      p.Meta.Benchmark,
		SpecHash:       specHash,
		TraceLength:    p.Meta.TraceLength,
		IntervalLength: p.Meta.IntervalLength,
		CPU:            p.Meta.CPU,
	})
	encCacheConfig(e, p.Meta.LLC)
	if p.Meta.Derived {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
	e.Uvarint(uint64(ways))
	e.Uvarint(uint64(len(p.Intervals)))
	for i := range p.Intervals {
		iv := &p.Intervals[i]
		e.Uvarint(uint64(iv.Instructions))
		e.F64(iv.Cycles)
		e.F64(iv.MemStall)
		e.F64(iv.LLCAccesses)
		for _, v := range iv.SDC {
			e.F64(v)
		}
	}
	return binenc.AppendChecksum(e.B)
}

// f64At reads the raw-bit float64 at b[off:].
func f64At(b []byte, off int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
}

// maxProfileWays bounds decoded SDC associativity; real configurations
// are <= 16 ways, so anything huge is structural nonsense.
const maxProfileWays = 1 << 10

// DecodeProfile deserializes and validates a profile artifact. The
// returned profile passed profile.Validate, so it is safe to hand
// straight to the model layer.
func DecodeProfile(b []byte) (*profile.Profile, Header, error) {
	d, kind, err := open(b)
	if err != nil {
		return nil, Header{}, err
	}
	if kind != KindProfile {
		return nil, Header{}, fmt.Errorf("%w: artifact is a %v, not a profile", ErrCorrupt, kind)
	}
	h := decHeader(d, kind)
	llc := decCacheConfig(d)
	derived := d.ByteVal() != 0
	ways := d.Uvarint()
	if ways < 1 || ways > maxProfileWays {
		return nil, Header{}, fmt.Errorf("%w: implausible SDC associativity %d", ErrCorrupt, ways)
	}
	// Each interval is an instruction-count uvarint followed by its
	// fixed-width floats: three counters and the ways+1 SDC buckets.
	floatBytes := 8 * (3 + int(ways) + 1)
	n := d.Count(1 + floatBytes)
	p := &profile.Profile{
		Meta: profile.Meta{
			Benchmark:      h.Benchmark,
			TraceLength:    h.TraceLength,
			IntervalLength: h.IntervalLength,
			LLC:            llc,
			CPU:            h.CPU,
			Derived:        derived,
		},
		Intervals: make([]profile.Interval, n),
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		iv := &p.Intervals[i]
		iv.Instructions = int64(d.Uvarint())
		f := d.Bytes(floatBytes)
		if f == nil {
			break
		}
		iv.Cycles = f64At(f, 0)
		iv.MemStall = f64At(f, 8)
		iv.LLCAccesses = f64At(f, 16)
		sdcs := make([]float64, ways+1)
		f = f[24:]
		for k := range sdcs {
			sdcs[k] = f64At(f, 8*k)
		}
		iv.SDC = sdcs
	}
	if err := d.Err(); err != nil {
		return nil, Header{}, err
	}
	if d.Remaining() != 0 {
		return nil, Header{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.Remaining())
	}
	h.LLC = llc
	if err := p.Validate(); err != nil {
		return nil, Header{}, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return p, h, nil
}

// PeekHeader reads an artifact's identity without materializing its
// payload. The whole-file checksum is still verified — a successful
// peek implies the file is intact end to end.
func PeekHeader(b []byte) (Header, error) {
	d, kind, err := open(b)
	if err != nil {
		return Header{}, err
	}
	h := decHeader(d, kind)
	if kind == KindProfile {
		h.LLC = decCacheConfig(d)
	}
	if err := d.Err(); err != nil {
		return Header{}, err
	}
	return h, nil
}
