// Package binenc holds the binary encoding primitives shared by the
// repository's versioned binary formats: the artifact store codec
// (internal/store/codec) and the eval wire protocol (internal/wire).
// Both formats follow the same idiom — little-endian fixed-width
// integers, varint/zigzag-varint columns, float64s as raw IEEE bits,
// length-prefixed strings — so the append-only encoder and the
// sticky-error bounds-checked decoder live here once. The crc64-ECMA
// checksum (CRCTable, AppendChecksum) is the wire stream's alone: the
// artifact codec seals its files with CRC-32C, which is an order of
// magnitude faster over whole files, while the wire protocol keeps
// crc64 because changing it would be a protocol version bump.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
)

// MaxStringLen bounds decoded strings (benchmark, config and kind
// names); anything longer is structural nonsense, not data.
const MaxStringLen = 1 << 12

// ErrCorrupt is the default sentinel wrapped by Dec failures when the
// caller does not install its own (Dec.Sentinel).
var ErrCorrupt = errors.New("binenc: corrupt data")

// CRCTable is the crc64-ECMA table of the wire protocol's checksums.
var CRCTable = crc64.MakeTable(crc64.ECMA)

// AppendChecksum seals an encoded buffer with its trailing crc64.
func AppendChecksum(b []byte) []byte {
	return binary.LittleEndian.AppendUint64(b, crc64.Checksum(b, CRCTable))
}

// Enc is an append-only encoder. The zero value is ready to use; B is
// the encoded buffer.
type Enc struct {
	B []byte
}

func (e *Enc) U16(v uint16)     { e.B = binary.LittleEndian.AppendUint16(e.B, v) }
func (e *Enc) U64(v uint64)     { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }
func (e *Enc) Varint(v int64)   { e.B = binary.AppendVarint(e.B, v) }
func (e *Enc) F64(v float64)    { e.U64(math.Float64bits(v)) }
func (e *Enc) Byte(c byte)      { e.B = append(e.B, c) }

func (e *Enc) Str(s string) {
	e.Uvarint(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Dec is a bounds-checked decoder with a sticky error; every getter
// returns a zero value once the error is set, so decode paths read
// straight through and check Err once per section. Failures wrap
// Sentinel (ErrCorrupt when unset) so callers keep their own error
// taxonomy.
type Dec struct {
	B        []byte
	Off      int
	Sentinel error
	err      error
}

// Fail records a decode failure at the current offset (first failure
// wins).
func (d *Dec) Fail(what string) {
	if d.err == nil {
		s := d.Sentinel
		if s == nil {
			s = ErrCorrupt
		}
		d.err = fmt.Errorf("%w: %s at offset %d", s, what, d.Off)
	}
}

// Err returns the sticky decode error, if any.
func (d *Dec) Err() error { return d.err }

func (d *Dec) Remaining() int { return len(d.B) - d.Off }

func (d *Dec) Bytes(n int) []byte {
	if d.err != nil || n < 0 || n > d.Remaining() {
		d.Fail("truncated")
		return nil
	}
	out := d.B[d.Off : d.Off+n]
	d.Off += n
	return out
}

func (d *Dec) ByteVal() byte {
	b := d.Bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *Dec) U16() uint16 {
	b := d.Bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *Dec) U64() uint64 {
	b := d.Bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.B[d.Off:])
	if n <= 0 {
		d.Fail("bad uvarint")
		return 0
	}
	d.Off += n
	return v
}

func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.B[d.Off:])
	if n <= 0 {
		d.Fail("bad varint")
		return 0
	}
	d.Off += n
	return v
}

func (d *Dec) Str() string {
	n := d.Uvarint()
	if n > MaxStringLen {
		d.Fail("oversized string")
		return ""
	}
	return string(d.Bytes(int(n)))
}

// Count reads an element count and rejects counts that could not fit in
// the remaining bytes at minBytes per element — the allocation guard
// that keeps a tiny corrupt input from demanding a giant slice.
func (d *Dec) Count(minBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(d.Remaining()/minBytes) {
		d.Fail("implausible element count")
		return 0
	}
	return int(n)
}
