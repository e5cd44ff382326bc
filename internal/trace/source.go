package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// AddrBits is the address width a Source may use: every address stays
// below 1<<AddrBits, because the multi-core simulator tags core IDs into
// the bits above it to keep co-running programs from aliasing.
const AddrBits = 44

// Source is a replayable stream of memory references. *Reader is the
// synthetic implementation; Recorded replays a serialized trace; users
// of the simulator can plug their own (e.g. traces converted from other
// tools) as long as Reset regenerates the identical stream and all
// addresses stay below 1<<AddrBits.
type Source interface {
	// Name identifies the workload.
	Name() string
	// Instructions returns the total instruction count of the trace.
	Instructions() int64
	// Next returns the next reference; ok is false at end of trace.
	Next() (ref Ref, ok bool)
	// Reset rewinds to the start; the stream must replay identically.
	Reset()
}

// Name implements Source for the synthetic Reader.
func (r *Reader) Name() string { return r.spec.Name }

var _ Source = (*Reader)(nil)

// BlockSource is an optional Source extension for batched reads.
// ReadBlock fills dst with up to len(dst) consecutive references and
// returns how many it wrote; 0 means end of trace. It advances the same
// stream position as Next, so the two can be mixed. Implementations pay
// one call per block instead of one interface dispatch per reference,
// which is where the simulator's 10M-iteration loops spend their call
// overhead.
type BlockSource interface {
	Source
	ReadBlock(dst []Ref) int
}

// DefaultBlockLen is the batch size the simulator reads through a Cursor.
const DefaultBlockLen = 1024

// Cursor adapts any Source for block-at-a-time consumption: it drains
// the source through ReadBlock when available (one interface call per
// DefaultBlockLen references) and falls back to buffering Next calls
// otherwise. Cursor.Next is a concrete method on a small struct that
// hands out a pointer into the block, so the per-reference cost in the
// simulator inner loops is a bounds check rather than an interface
// dispatch and a copy.
type Cursor struct {
	src    Source
	blk    BlockSource // nil when src does not implement BlockSource
	buf    []Ref
	pos, n int
}

// NewCursor returns a Cursor over src.
func NewCursor(src Source) *Cursor {
	c := &Cursor{src: src, buf: make([]Ref, DefaultBlockLen)}
	if b, ok := src.(BlockSource); ok {
		c.blk = b
	}
	return c
}

// Next returns the next reference, or nil at end of trace. The Ref
// lives in the cursor's block: it stays valid only until the next call
// to Next or Reset, and callers must not modify it.
func (c *Cursor) Next() *Ref {
	if c.pos >= c.n && !c.refill() {
		return nil
	}
	ref := &c.buf[c.pos]
	c.pos++
	return ref
}

func (c *Cursor) refill() bool {
	if c.blk != nil {
		c.n = c.blk.ReadBlock(c.buf)
	} else {
		n := 0
		for n < len(c.buf) {
			ref, ok := c.src.Next()
			if !ok {
				break
			}
			c.buf[n] = ref
			n++
		}
		c.n = n
	}
	c.pos = 0
	return c.n > 0
}

// Reset rewinds the underlying source and discards buffered references.
func (c *Cursor) Reset() {
	c.src.Reset()
	c.pos, c.n = 0, 0
}

// Recorded is an in-memory trace that replays a fixed reference
// sequence. It is what ReadTrace returns and is also useful for tests
// that need hand-crafted access patterns.
type Recorded struct {
	name   string
	length int64
	refs   []Ref
	pos    int
}

// NewRecorded builds a replayable trace from explicit references. The
// instruction count is the sum of the gaps. Every gap must be at least
// one instruction costing a finite, non-negative number of cycles, and
// every address must stay below 1<<AddrBits.
func NewRecorded(name string, refs []Ref) (*Recorded, error) {
	if name == "" {
		return nil, fmt.Errorf("trace: recorded trace needs a name")
	}
	var total int64
	for i, r := range refs {
		if r.Gap < 1 {
			return nil, fmt.Errorf("trace: ref %d has gap %d < 1", i, r.Gap)
		}
		// Written so that NaN fails too.
		if !(r.GapCycles >= 0 && r.GapCycles <= math.MaxFloat64) {
			return nil, fmt.Errorf("trace: ref %d has gap cycles %v, not a finite non-negative number", i, r.GapCycles)
		}
		if r.Addr >= 1<<AddrBits {
			return nil, fmt.Errorf("trace: ref %d has address %#x, not below 1<<%d", i, r.Addr, AddrBits)
		}
		total += r.Gap
	}
	if total == 0 {
		return nil, fmt.Errorf("trace: recorded trace is empty")
	}
	return &Recorded{name: name, length: total, refs: refs}, nil
}

// Name implements Source.
func (t *Recorded) Name() string { return t.name }

// Instructions implements Source.
func (t *Recorded) Instructions() int64 { return t.length }

// Next implements Source.
func (t *Recorded) Next() (Ref, bool) {
	if t.pos >= len(t.refs) {
		return Ref{}, false
	}
	r := t.refs[t.pos]
	t.pos++
	return r, true
}

// Reset implements Source.
func (t *Recorded) Reset() { t.pos = 0 }

// ReadBlock implements BlockSource by copying directly out of the
// recorded reference slice.
func (t *Recorded) ReadBlock(dst []Ref) int {
	n := copy(dst, t.refs[t.pos:])
	t.pos += n
	return n
}

var (
	_ Source      = (*Recorded)(nil)
	_ BlockSource = (*Recorded)(nil)
)

// Trace file format: a small header followed by one fixed-width record
// per reference, little-endian. The format exists so synthetic traces
// can be exported to (and re-imported from) other tools.
const (
	traceMagic   = uint32(0x4d50504d) // "MPPM"
	traceVersion = uint32(1)

	flagWrite     = byte(1 << 0)
	flagDependent = byte(1 << 1)
)

// WriteTrace drains src from the beginning and serializes every
// reference to w. src is Reset before and after writing. The format
// stores each gap as a uint32, so a source with a gap outside
// [1, MaxUint32] is rejected before anything is written.
func WriteTrace(w io.Writer, src Source) error {
	name := src.Name()
	if len(name) > 255 {
		return fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	src.Reset()
	for i := 0; ; i++ {
		ref, ok := src.Next()
		if !ok {
			break
		}
		if ref.Gap < 1 || ref.Gap > math.MaxUint32 {
			src.Reset()
			return fmt.Errorf("trace: %s: ref %d has gap %d, outside the format's [1, %d]",
				name, i, ref.Gap, uint32(math.MaxUint32))
		}
	}
	src.Reset()
	bw := bufio.NewWriter(w)
	hdr := []any{
		traceMagic, traceVersion, uint32(len(name)),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(name); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, src.Instructions()); err != nil {
		return err
	}

	// Records are streamed; the reader detects the end with io.EOF, so
	// no count field is needed.
	for {
		ref, ok := src.Next()
		if !ok {
			break
		}
		var flags byte
		if ref.Write {
			flags |= flagWrite
		}
		if ref.Dependent {
			flags |= flagDependent
		}
		rec := []any{ref.Addr, ref.GapCycles, uint32(ref.Gap), flags}
		for _, v := range rec {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
	}
	src.Reset()
	return bw.Flush()
}

// ReadTrace deserializes a trace written by WriteTrace into a Recorded
// source and validates that the gaps sum to the header's instruction
// count.
func ReadTrace(r io.Reader) (*Recorded, error) {
	br := bufio.NewReader(r)
	var magic, version, nameLen uint32
	for _, v := range []any{&magic, &version, &nameLen} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("trace: header: %w", err)
		}
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", magic)
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", version)
	}
	if nameLen == 0 || nameLen > 255 {
		return nil, fmt.Errorf("trace: bad name length %d", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, fmt.Errorf("trace: name: %w", err)
	}
	var length int64
	if err := binary.Read(br, binary.LittleEndian, &length); err != nil {
		return nil, fmt.Errorf("trace: length: %w", err)
	}

	var refs []Ref
	for {
		var addr uint64
		if err := binary.Read(br, binary.LittleEndian, &addr); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("trace: record: %w", err)
		}
		var gapCycles float64
		var gap uint32
		var flags byte
		for _, v := range []any{&gapCycles, &gap, &flags} {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return nil, fmt.Errorf("trace: truncated record: %w", err)
			}
		}
		refs = append(refs, Ref{
			Addr:      addr,
			Write:     flags&flagWrite != 0,
			Dependent: flags&flagDependent != 0,
			Gap:       int64(gap),
			GapCycles: gapCycles,
		})
	}
	rec, err := NewRecorded(string(nameBuf), refs)
	if err != nil {
		return nil, err
	}
	if rec.Instructions() != length {
		return nil, fmt.Errorf("trace: gaps sum to %d, header says %d",
			rec.Instructions(), length)
	}
	return rec, nil
}
