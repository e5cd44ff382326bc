// Package wire implements the versioned binary stream protocol of
// POST /v1/eval — the compact row transport behind the
// application/x-mppm-wire content type, and the default
// coordinator↔replica shard transport of the fleet fabric.
//
// It follows the artifact codec's idiom (internal/store/codec, shared
// primitives in internal/binenc): a magic, a little-endian uint16
// format version, a self-describing header, varint/zigzag-delta
// payloads, float64s carried as raw IEEE-754 bits (never re-quantized —
// a decoded row re-encodes to byte-identical JSON), and a trailing
// crc64-ECMA over the whole stream.
//
// Response stream layout:
//
//	magic "MPWS" | format version (uint16 LE)
//	header: kind, config names, mixes — the response grid identity
//	frames: 0x01 row | 0x02 stream error | 0x03 end (crc64 LE)
//
// Row frames address the grid by (config index, mix index), so the mix
// itself is never re-transmitted; per-program float vectors are encoded
// as zigzag varint deltas of consecutive raw bit patterns, which
// shrinks well because neighboring slowdowns share exponent and
// high-mantissa bits. Row and error frames are length-prefixed, the end
// frame seals the stream with a crc64 over every preceding byte
// (including the end frame's type byte).
//
// Request documents ("MPWQ") carry the EvalRequest fields in the same
// style with a trailing crc64, so a fleet shard round trip is binary in
// both directions.
//
// Decoding is strict and panic-free on arbitrary input
// (FuzzWireRoundTrip): corrupt structure or checksum yields ErrCorrupt,
// a version skew yields ErrVersion. A stream that ends in an error
// frame surfaces as *StreamError — only after its crc verified, so a
// mid-stream error is distinguishable from a torn connection.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"slices"
	"strings"

	"repro/internal/binenc"
)

// FormatVersion is the wire protocol version. It is negotiated
// independently of the artifact codec version: /v1/version exposes both,
// and fleet clients fall back to NDJSON on a wire version mismatch
// instead of refusing the peer.
const FormatVersion = 1

// ContentType negotiates the binary stream on /v1/eval via the Accept
// (response) and Content-Type (request document) headers.
const ContentType = "application/x-mppm-wire"

var (
	// ErrCorrupt marks a stream or request document that failed
	// structural or checksum validation.
	ErrCorrupt = errors.New("wire: corrupt stream")
	// ErrVersion marks bytes written under a different wire format
	// version.
	ErrVersion = errors.New("wire: unsupported format version")
)

var (
	magicStream  = [4]byte{'M', 'P', 'W', 'S'}
	magicRequest = [4]byte{'M', 'P', 'W', 'Q'}
)

// Frame types.
const (
	frameRow   = 0x01
	frameError = 0x02
	frameEnd   = 0x03
)

// Row flag bits.
const (
	flagHasPrediction    = 1 << 0
	flagHasMeasurement   = 1 << 1
	flagHasCompareErrors = 1 << 2
	// flagPredBenchImplied / flagMeasBenchImplied mark a metrics block
	// whose Benchmarks equals the row's mix and was therefore omitted.
	flagPredBenchImplied = 1 << 3
	flagMeasBenchImplied = 1 << 4
)

// Decode limits: structural sanity bounds, far above anything the
// service's request caps admit.
const (
	maxFramePayload = 1 << 20
	maxHeaderMixes  = 1 << 20
	maxHeaderCfgs   = 1 << 16
	maxMixWidth     = 1 << 12
)

// StreamError is the decoded form of an error frame: the stream's
// producer terminated it mid-grid (cancellation, engine failure). The
// crc still verified — the bytes are intact; the evaluation failed.
type StreamError struct {
	Msg string
}

func (e *StreamError) Error() string { return "wire: stream error: " + e.Msg }

// StreamHeader is the self-describing identity of a response stream:
// the evaluation kind and the (configs × mixes) grid the row frames
// index into.
type StreamHeader struct {
	Kind    string
	Configs []string
	Mixes   [][]string
}

// mixKey joins a mix into a lookup key; 0x1f cannot occur in benchmark
// names.
func mixKey(mix []string) string { return strings.Join(mix, "\x1f") }

// encStrs encodes a nil-aware string vector: 0 means nil, n+1 means n
// elements.
func encStrs(e *binenc.Enc, v []string) {
	if v == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(v) + 1))
	for _, s := range v {
		e.Str(s)
	}
}

func decStrs(d *binenc.Dec, max int) []string {
	np := d.Uvarint()
	if np == 0 {
		return nil
	}
	n := int(np - 1)
	// Every element costs at least its one-byte length prefix.
	if n > max || n > d.Remaining() {
		d.Fail("implausible string count")
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// encF64s encodes a nil-aware float64 vector as zigzag varint deltas of
// consecutive raw bit patterns — bit-exact, and compact for the
// clustered per-program slowdown/CPI vectors.
func encF64s(e *binenc.Enc, v []float64) {
	if v == nil {
		e.Uvarint(0)
		return
	}
	e.Uvarint(uint64(len(v) + 1))
	var prev uint64
	for _, f := range v {
		bits := math.Float64bits(f)
		e.Varint(int64(bits - prev)) // zigzag delta; wraparound-safe
		prev = bits
	}
}

func decF64s(d *binenc.Dec) []float64 {
	np := d.Uvarint()
	if np == 0 {
		return nil
	}
	n := int(np - 1)
	if n > d.Remaining() { // each delta costs at least one byte
		d.Fail("implausible float count")
		return nil
	}
	out := make([]float64, n)
	var prev uint64
	for i := range out {
		prev += uint64(d.Varint())
		out[i] = math.Float64frombits(prev)
	}
	if d.Err() != nil {
		return nil
	}
	return out
}

// EncodeRequest serializes an EvalRequest as a binary request document.
// The Format field is carried verbatim; a wire-encoded body already
// implies a wire response, but round-tripping every field keeps
// encode/decode the identity.
func EncodeRequest(req EvalRequest) []byte {
	e := &binenc.Enc{B: make([]byte, 0, 256)}
	e.B = append(e.B, magicRequest[:]...)
	e.U16(FormatVersion)
	e.Str(req.Kind)
	encStrs(e, req.Mix)
	if req.Mixes == nil {
		e.Uvarint(0)
	} else {
		e.Uvarint(uint64(len(req.Mixes) + 1))
		for _, m := range req.Mixes {
			encStrs(e, m)
		}
	}
	e.Str(req.Config)
	encStrs(e, req.Configs)
	e.Str(req.Contention)
	e.Varint(int64(req.TopK))
	var flags byte
	if req.Stream {
		flags |= 1
	}
	e.Byte(flags)
	e.Str(req.Format)
	return binenc.AppendChecksum(e.B)
}

// DecodeRequest deserializes a binary request document. Corrupt bytes
// yield ErrCorrupt, a version skew ErrVersion; the decoded request
// still passes through the service's full validation, exactly like a
// JSON body.
func DecodeRequest(b []byte) (EvalRequest, error) {
	var zero EvalRequest
	const minDoc = 4 + 2 + 8
	if len(b) < minDoc {
		return zero, fmt.Errorf("%w: request too short (%d bytes)", ErrCorrupt, len(b))
	}
	if [4]byte(b[:4]) != magicRequest {
		return zero, fmt.Errorf("%w: bad request magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(b[4:6]); v != FormatVersion {
		return zero, fmt.Errorf("%w: request version %d, this build speaks %d", ErrVersion, v, FormatVersion)
	}
	body, sum := b[:len(b)-8], binary.LittleEndian.Uint64(b[len(b)-8:])
	if crc64.Checksum(body, binenc.CRCTable) != sum {
		return zero, fmt.Errorf("%w: request checksum mismatch", ErrCorrupt)
	}
	d := &binenc.Dec{B: body, Off: 6, Sentinel: ErrCorrupt}
	var req EvalRequest
	req.Kind = d.Str()
	req.Mix = decStrs(d, maxMixWidth)
	if np := d.Uvarint(); np > 0 {
		n := int(np - 1)
		if n > maxHeaderMixes || n > d.Remaining() {
			d.Fail("implausible mix count")
		} else {
			req.Mixes = make([][]string, n)
			for i := range req.Mixes {
				req.Mixes[i] = decStrs(d, maxMixWidth)
			}
		}
	}
	req.Config = d.Str()
	req.Configs = decStrs(d, maxHeaderCfgs)
	req.Contention = d.Str()
	req.TopK = int(d.Varint())
	flags := d.ByteVal()
	req.Stream = flags&1 != 0
	req.Format = d.Str()
	if err := d.Err(); err != nil {
		return zero, err
	}
	if d.Remaining() != 0 {
		return zero, fmt.Errorf("%w: %d trailing request bytes", ErrCorrupt, d.Remaining())
	}
	return req, nil
}

// Writer emits one response stream: header at construction, one frame
// per WriteRow/WriteError, the sealing crc frame on Close. It keeps a
// running crc and performs one underlying Write per frame, so a flush
// between any two frames puts only whole frames on the socket. Not safe
// for concurrent use.
type Writer struct {
	w       io.Writer
	hdr     StreamHeader
	cfgIdx  map[string]int
	mixIdx  map[string]int
	crc     uint64
	n       int64
	frame   binenc.Enc // assembled frame scratch, reused
	payload binenc.Enc // frame payload scratch, reused
	key     []byte     // mix-key scratch, reused (alloc-free map lookup)
	closed  bool
}

// NewWriter writes the stream preamble (magic, version, header) for the
// given grid and returns a Writer positioned for row frames.
func NewWriter(w io.Writer, hdr StreamHeader) (*Writer, error) {
	wr := &Writer{
		w:      w,
		hdr:    hdr,
		cfgIdx: make(map[string]int, len(hdr.Configs)),
		mixIdx: make(map[string]int, len(hdr.Mixes)),
	}
	for i, c := range hdr.Configs {
		if _, dup := wr.cfgIdx[c]; !dup {
			wr.cfgIdx[c] = i
		}
	}
	for i, m := range hdr.Mixes {
		k := mixKey(m)
		if _, dup := wr.mixIdx[k]; !dup {
			wr.mixIdx[k] = i
		}
	}
	e := &wr.frame
	e.B = append(e.B[:0], magicStream[:]...)
	e.U16(FormatVersion)
	e.Str(hdr.Kind)
	encStrs(e, hdr.Configs)
	e.Uvarint(uint64(len(hdr.Mixes)))
	for _, m := range hdr.Mixes {
		encStrs(e, m)
	}
	if err := wr.flushFrame(); err != nil {
		return nil, err
	}
	return wr, nil
}

// BytesWritten returns the total stream bytes written so far.
func (w *Writer) BytesWritten() int64 { return w.n }

func (w *Writer) flushFrame() error {
	b := w.frame.B
	w.crc = crc64.Update(w.crc, binenc.CRCTable, b)
	w.n += int64(len(b))
	_, err := w.w.Write(b)
	return err
}

func encMetrics(e *binenc.Enc, m *Metrics, implied bool) {
	if !implied {
		encStrs(e, m.Benchmarks)
	}
	encF64s(e, m.SingleCPI)
	encF64s(e, m.MultiCPI)
	encF64s(e, m.Slowdown)
	e.F64(m.STP)
	e.F64(m.ANTT)
	e.Varint(int64(m.Iterations))
}

func decMetrics(d *binenc.Dec, mix []string, implied bool) *Metrics {
	m := &Metrics{}
	if implied {
		m.Benchmarks = slices.Clone(mix)
	} else {
		m.Benchmarks = decStrs(d, maxMixWidth)
	}
	m.SingleCPI = decF64s(d)
	m.MultiCPI = decF64s(d)
	m.Slowdown = decF64s(d)
	m.STP = d.F64()
	m.ANTT = d.F64()
	m.Iterations = int(d.Varint())
	return m
}

// WriteRow emits one scenario row. The row's mix and config must be in
// the stream header's grid — the frame carries grid indices, not the
// mix itself.
func (w *Writer) WriteRow(sc *ScenarioResult) error {
	if w.closed {
		return fmt.Errorf("wire: write on closed stream")
	}
	cfg, ok := w.cfgIdx[sc.Config]
	if !ok {
		return fmt.Errorf("wire: row config %q not in stream header", sc.Config)
	}
	w.key = w.key[:0]
	for i, s := range sc.Mix {
		if i > 0 {
			w.key = append(w.key, 0x1f)
		}
		w.key = append(w.key, s...)
	}
	// The string(...) conversion inside the index expression is
	// recognized by the compiler and does not allocate.
	mix, ok := w.mixIdx[string(w.key)]
	if !ok || sc.Mix == nil {
		return fmt.Errorf("wire: row mix %v not in stream header", sc.Mix)
	}

	p := &w.payload
	p.B = p.B[:0]
	p.Uvarint(uint64(cfg))
	p.Uvarint(uint64(mix))
	p.Str(sc.Error)
	var flags byte
	predImplied := sc.Prediction != nil && sc.Prediction.Benchmarks != nil &&
		slices.Equal(sc.Prediction.Benchmarks, sc.Mix)
	measImplied := sc.Measurement != nil && sc.Measurement.Benchmarks != nil &&
		slices.Equal(sc.Measurement.Benchmarks, sc.Mix)
	hasCmpErr := sc.STPError != 0 || sc.ANTTError != 0
	if sc.Prediction != nil {
		flags |= flagHasPrediction
	}
	if sc.Measurement != nil {
		flags |= flagHasMeasurement
	}
	if hasCmpErr {
		flags |= flagHasCompareErrors
	}
	if predImplied {
		flags |= flagPredBenchImplied
	}
	if measImplied {
		flags |= flagMeasBenchImplied
	}
	p.Byte(flags)
	if sc.Prediction != nil {
		encMetrics(p, sc.Prediction, predImplied)
	}
	if sc.Measurement != nil {
		encMetrics(p, sc.Measurement, measImplied)
	}
	if hasCmpErr {
		p.F64(sc.STPError)
		p.F64(sc.ANTTError)
	}

	f := &w.frame
	f.B = f.B[:0]
	f.Byte(frameRow)
	f.Uvarint(uint64(len(p.B)))
	f.B = append(f.B, p.B...)
	return w.flushFrame()
}

// WriteError emits a stream-level error frame — the binary counterpart
// of the NDJSON trailing {"error": ...} line. Call Close afterwards to
// seal the stream.
func (w *Writer) WriteError(msg string) error {
	if w.closed {
		return fmt.Errorf("wire: write on closed stream")
	}
	p := &w.payload
	p.B = p.B[:0]
	p.Str(msg)
	f := &w.frame
	f.B = f.B[:0]
	f.Byte(frameError)
	f.Uvarint(uint64(len(p.B)))
	f.B = append(f.B, p.B...)
	return w.flushFrame()
}

// Close seals the stream with the end frame: the frame type byte enters
// the running crc, then the crc itself trails in one write.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	b := []byte{frameEnd}
	crc := crc64.Update(w.crc, binenc.CRCTable, b)
	b = binary.LittleEndian.AppendUint64(b, crc)
	w.n += int64(len(b))
	_, err := w.w.Write(b)
	return err
}

// Reader decodes one response stream incrementally: the header is read
// at construction, each Next returns one row as frames arrive. The
// final end frame verifies the running crc and surfaces as io.EOF; an
// error frame surfaces as *StreamError (after crc verification). A torn
// or corrupt stream yields ErrCorrupt.
type Reader struct {
	br   *bufio.Reader
	hdr  StreamHeader
	crc  uint64
	n    int64
	buf  []byte // frame payload scratch, reused
	done bool
	err  error // sticky terminal error
}

// NewReader consumes and validates the stream preamble.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{br: bufio.NewReader(r)}
	var pre [6]byte
	if err := rd.readFull(pre[:]); err != nil {
		return nil, fmt.Errorf("%w: short preamble: %v", ErrCorrupt, err)
	}
	if [4]byte(pre[:4]) != magicStream {
		return nil, fmt.Errorf("%w: bad stream magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(pre[4:6]); v != FormatVersion {
		return nil, fmt.Errorf("%w: stream version %d, this build speaks %d", ErrVersion, v, FormatVersion)
	}
	kind, err := rd.readStr()
	if err != nil {
		return nil, err
	}
	rd.hdr.Kind = kind
	if rd.hdr.Configs, err = rd.readStrs(maxHeaderCfgs); err != nil {
		return nil, err
	}
	nm, err := rd.readUvarint()
	if err != nil {
		return nil, err
	}
	if nm > maxHeaderMixes {
		return nil, fmt.Errorf("%w: implausible header mix count %d", ErrCorrupt, nm)
	}
	rd.hdr.Mixes = make([][]string, 0, min(int(nm), 1024))
	for i := 0; i < int(nm); i++ {
		m, err := rd.readStrs(maxMixWidth)
		if err != nil {
			return nil, err
		}
		rd.hdr.Mixes = append(rd.hdr.Mixes, m)
	}
	return rd, nil
}

// Header returns the stream's grid identity.
func (r *Reader) Header() StreamHeader { return r.hdr }

// BytesRead returns the total stream bytes consumed so far.
func (r *Reader) BytesRead() int64 { return r.n }

func (r *Reader) readFull(p []byte) error {
	if _, err := io.ReadFull(r.br, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	r.crc = crc64.Update(r.crc, binenc.CRCTable, p)
	r.n += int64(len(p))
	return nil
}

func (r *Reader) readByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err != nil {
		return 0, err
	}
	r.crc = crc64.Update(r.crc, binenc.CRCTable, []byte{b})
	r.n++
	return b, nil
}

func (r *Reader) readUvarint() (uint64, error) {
	var v uint64
	for shift := 0; shift < 64; shift += 7 {
		b, err := r.readByte()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, fmt.Errorf("%w: truncated varint: %v", ErrCorrupt, err)
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
	}
	return 0, fmt.Errorf("%w: varint overflow", ErrCorrupt)
}

func (r *Reader) readStr() (string, error) {
	n, err := r.readUvarint()
	if err != nil {
		return "", err
	}
	if n > binenc.MaxStringLen {
		return "", fmt.Errorf("%w: oversized string (%d bytes)", ErrCorrupt, n)
	}
	b := make([]byte, n)
	if err := r.readFull(b); err != nil {
		return "", fmt.Errorf("%w: truncated string: %v", ErrCorrupt, err)
	}
	return string(b), nil
}

func (r *Reader) readStrs(max int) ([]string, error) {
	np, err := r.readUvarint()
	if err != nil {
		return nil, err
	}
	if np == 0 {
		return nil, nil
	}
	n := int(np - 1)
	if n > max {
		return nil, fmt.Errorf("%w: implausible string count %d", ErrCorrupt, n)
	}
	out := make([]string, 0, min(n, 1024))
	for i := 0; i < n; i++ {
		s, err := r.readStr()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Next returns the next row, io.EOF after a verified end frame, a
// *StreamError for a verified error frame, or ErrCorrupt. Terminal
// errors are sticky.
func (r *Reader) Next() (*ScenarioResult, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.done {
		return nil, io.EOF
	}
	fail := func(err error) (*ScenarioResult, error) {
		r.err = err
		return nil, err
	}
	t, err := r.readByte()
	if err != nil {
		return fail(fmt.Errorf("%w: stream ended without end frame: %v", ErrCorrupt, err))
	}
	switch t {
	case frameRow:
		if err := r.readPayload(); err != nil {
			return fail(err)
		}
		sc, err := r.decodeRow()
		if err != nil {
			return fail(err)
		}
		return sc, nil
	case frameError:
		if err := r.readPayload(); err != nil {
			return fail(err)
		}
		d := &binenc.Dec{B: r.buf, Sentinel: ErrCorrupt}
		msg := d.Str()
		if err := d.Err(); err != nil {
			return fail(err)
		}
		// The error frame is terminal: the end frame must follow at once
		// so the crc can vouch for the error being real, not line noise.
		if err := r.readEnd(); err != nil {
			return fail(err)
		}
		r.done = true
		serr := &StreamError{Msg: msg}
		r.err = serr
		return nil, serr
	case frameEnd:
		if err := r.verifyEnd(); err != nil {
			return fail(err)
		}
		r.done = true
		return nil, io.EOF
	default:
		return fail(fmt.Errorf("%w: unknown frame type 0x%02x", ErrCorrupt, t))
	}
}

// readPayload reads a length-prefixed frame payload into the reused
// scratch buffer.
func (r *Reader) readPayload() error {
	n, err := r.readUvarint()
	if err != nil {
		return err
	}
	if n > maxFramePayload {
		return fmt.Errorf("%w: oversized frame (%d bytes)", ErrCorrupt, n)
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if err := r.readFull(r.buf); err != nil {
		return fmt.Errorf("%w: truncated frame: %v", ErrCorrupt, err)
	}
	return nil
}

// readEnd consumes the end frame's type byte and crc.
func (r *Reader) readEnd() error {
	t, err := r.readByte()
	if err != nil {
		return fmt.Errorf("%w: stream ended without end frame: %v", ErrCorrupt, err)
	}
	if t != frameEnd {
		return fmt.Errorf("%w: expected end frame after error frame, got 0x%02x", ErrCorrupt, t)
	}
	return r.verifyEnd()
}

// verifyEnd checks the trailing crc; the end frame's type byte is
// already in the running crc.
func (r *Reader) verifyEnd() error {
	want := r.crc
	var sum [8]byte
	if _, err := io.ReadFull(r.br, sum[:]); err != nil {
		return fmt.Errorf("%w: truncated checksum: %v", ErrCorrupt, err)
	}
	r.n += 8
	if binary.LittleEndian.Uint64(sum[:]) != want {
		return fmt.Errorf("%w: stream checksum mismatch", ErrCorrupt)
	}
	return nil
}

func (r *Reader) decodeRow() (*ScenarioResult, error) {
	d := &binenc.Dec{B: r.buf, Sentinel: ErrCorrupt}
	cfg := d.Uvarint()
	mix := d.Uvarint()
	if d.Err() == nil && (cfg >= uint64(len(r.hdr.Configs)) || mix >= uint64(len(r.hdr.Mixes))) {
		d.Fail("row index outside header grid")
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	sc := &ScenarioResult{
		Mix:    slices.Clone(r.hdr.Mixes[mix]),
		Config: r.hdr.Configs[cfg],
		Error:  d.Str(),
	}
	flags := d.ByteVal()
	if flags&flagHasPrediction != 0 {
		sc.Prediction = decMetrics(d, sc.Mix, flags&flagPredBenchImplied != 0)
	}
	if flags&flagHasMeasurement != 0 {
		sc.Measurement = decMetrics(d, sc.Mix, flags&flagMeasBenchImplied != 0)
	}
	if flags&flagHasCompareErrors != 0 {
		sc.STPError = d.F64()
		sc.ANTTError = d.F64()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing row bytes", ErrCorrupt, d.Remaining())
	}
	return sc, nil
}
