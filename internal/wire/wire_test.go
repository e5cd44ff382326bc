package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// testHeader is a small but representative grid: two configs, three
// mixes of different widths.
func testHeader() StreamHeader {
	return StreamHeader{
		Kind:    "compare",
		Configs: []string{"config#1", "config#4"},
		Mixes: [][]string{
			{"mcf", "lbm"},
			{"gamess", "milc", "soplex", "mcf"},
			{"namd"},
		},
	}
}

// testRows covers every flag combination the encoder distinguishes:
// error-only, prediction with implied benchmarks, both metrics plus
// compare errors, and explicit (non-mix) benchmarks.
func testRows() []*ScenarioResult {
	return []*ScenarioResult{
		{Mix: []string{"mcf", "lbm"}, Config: "config#1", Error: "unknown benchmark \"zap\""},
		{
			Mix: []string{"gamess", "milc", "soplex", "mcf"}, Config: "config#1",
			Prediction: &Metrics{
				Benchmarks: []string{"gamess", "milc", "soplex", "mcf"},
				SingleCPI:  []float64{0.41, 1.93, 1.12, 3.71},
				MultiCPI:   []float64{0.44, 2.31, 1.30, 4.02},
				Slowdown:   []float64{1.07, 1.20, 1.16, 1.08},
				STP:        3.54, ANTT: 1.13, Iterations: 3,
			},
		},
		{
			Mix: []string{"namd"}, Config: "config#4",
			Prediction: &Metrics{
				Benchmarks: []string{"namd"},
				SingleCPI:  []float64{0.77}, MultiCPI: []float64{0.77},
				Slowdown: []float64{1.0}, STP: 1.0, ANTT: 1.0, Iterations: 1,
			},
			Measurement: &Metrics{
				Benchmarks: []string{"namd"},
				SingleCPI:  []float64{0.77}, MultiCPI: []float64{0.78},
				Slowdown: []float64{1.013}, STP: 0.987, ANTT: 1.013, Iterations: 1,
			},
			STPError: 0.013, ANTTError: 0.0128,
		},
		{
			// Benchmarks differing from the mix must survive explicitly.
			Mix: []string{"mcf", "lbm"}, Config: "config#4",
			Measurement: &Metrics{
				Benchmarks: []string{"lbm", "mcf"},
				STP:        1.5, ANTT: 1.9,
			},
		},
	}
}

func encodeStream(t testing.TB, hdr StreamHeader, rows []*ScenarioResult, trailer string) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, hdr)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, sc := range rows {
		if err := w.WriteRow(sc); err != nil {
			t.Fatalf("WriteRow: %v", err)
		}
	}
	if trailer != "" {
		if err := w.WriteError(trailer); err != nil {
			t.Fatalf("WriteError: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := w.BytesWritten(); got != int64(buf.Len()) {
		t.Fatalf("BytesWritten = %d, wrote %d", got, buf.Len())
	}
	return buf.Bytes()
}

func decodeStream(t testing.TB, b []byte) (StreamHeader, []*ScenarioResult, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var rows []*ScenarioResult
	for {
		sc, err := r.Next()
		if err == io.EOF {
			if got := r.BytesRead(); got != int64(len(b)) {
				t.Fatalf("BytesRead = %d, stream is %d bytes", got, len(b))
			}
			return r.Header(), rows, nil
		}
		if err != nil {
			return r.Header(), rows, err
		}
		rows = append(rows, sc)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	hdr, rows := testHeader(), testRows()
	b := encodeStream(t, hdr, rows, "")
	gotHdr, gotRows, err := decodeStream(t, b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(gotHdr, hdr) {
		t.Fatalf("header drift:\n got %+v\nwant %+v", gotHdr, hdr)
	}
	if len(gotRows) != len(rows) {
		t.Fatalf("got %d rows, want %d", len(gotRows), len(rows))
	}
	for i := range rows {
		if !reflect.DeepEqual(gotRows[i], rows[i]) {
			t.Errorf("row %d drift:\n got %+v\nwant %+v", i, gotRows[i], rows[i])
		}
	}
}

// TestStreamRoundTripBitExact pushes pathological float bit patterns
// through the zigzag-delta vector encoding: the decoded bits must match
// exactly (the byte-identity invariant of the JSON paths rides on this).
func TestStreamRoundTripBitExact(t *testing.T) {
	ugly := []float64{
		0, math.Copysign(0, -1), 1e-308, -1e308,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Nextafter(1, 2), math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	hdr := StreamHeader{Kind: "predict", Configs: []string{"c"}, Mixes: [][]string{{"a"}}}
	row := &ScenarioResult{
		Mix: []string{"a"}, Config: "c",
		Prediction: &Metrics{Benchmarks: []string{"a"}, SingleCPI: ugly, STP: math.NaN(), ANTT: math.Inf(-1)},
	}
	b := encodeStream(t, hdr, []*ScenarioResult{row}, "")
	_, rows, err := decodeStream(t, b)
	if err != nil || len(rows) != 1 {
		t.Fatalf("decode: rows=%d err=%v", len(rows), err)
	}
	got := rows[0].Prediction
	for i, f := range ugly {
		if math.Float64bits(got.SingleCPI[i]) != math.Float64bits(f) {
			t.Errorf("SingleCPI[%d]: bits %x != %x", i, math.Float64bits(got.SingleCPI[i]), math.Float64bits(f))
		}
	}
	if math.Float64bits(got.STP) != math.Float64bits(math.NaN()) {
		t.Errorf("NaN STP did not round-trip bit-exact")
	}
	if !math.IsInf(got.ANTT, -1) {
		t.Errorf("ANTT = %v, want -Inf", got.ANTT)
	}
}

// TestStreamError: a stream sealed by an error frame surfaces as
// *StreamError only after the crc verified, and rows before the error
// are still delivered.
func TestStreamError(t *testing.T) {
	hdr, rows := testHeader(), testRows()
	b := encodeStream(t, hdr, rows[:2], "context canceled")
	_, gotRows, err := decodeStream(t, b)
	if len(gotRows) != 2 {
		t.Fatalf("got %d rows before the error, want 2", len(gotRows))
	}
	var serr *StreamError
	if !errors.As(err, &serr) {
		t.Fatalf("err = %v, want *StreamError", err)
	}
	if serr.Msg != "context canceled" {
		t.Fatalf("Msg = %q", serr.Msg)
	}

	// The terminal error is sticky.
	r, _ := NewReader(bytes.NewReader(b))
	for {
		if _, err = r.Next(); err != nil {
			break
		}
	}
	if _, err2 := r.Next(); !errors.Is(err2, err) {
		t.Fatalf("terminal error not sticky: %v then %v", err, err2)
	}

	// A corrupted byte inside the error message flips the crc: the
	// stream must NOT surface as StreamError, but as ErrCorrupt.
	flip := append([]byte(nil), b...)
	flip[len(flip)-12] ^= 0x01
	_, _, err = decodeStream(t, flip)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted error frame: err = %v, want ErrCorrupt", err)
	}
}

func TestStreamVersionSkew(t *testing.T) {
	b := encodeStream(t, testHeader(), nil, "")
	skew := append([]byte(nil), b...)
	skew[4] ^= 0xFF
	if _, err := NewReader(bytes.NewReader(skew)); !errors.Is(err, ErrVersion) {
		t.Fatalf("NewReader on skewed version: %v, want ErrVersion", err)
	}
}

func TestStreamCorrupt(t *testing.T) {
	hdr, rows := testHeader(), testRows()
	b := encodeStream(t, hdr, rows, "")

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 3, 5, len(b) / 2, len(b) - 1} {
			r, err := NewReader(bytes.NewReader(b[:n]))
			if err == nil {
				for err == nil {
					_, err = r.Next()
				}
			}
			if errors.Is(err, io.EOF) || !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Errorf("truncation at %d: err = %v", n, err)
			}
		}
	})
	t.Run("bitflip", func(t *testing.T) {
		// Flipping any single bit must never yield a clean EOF: the crc
		// (or structure validation before it) has to object.
		for i := 6; i < len(b); i++ {
			flip := append([]byte(nil), b...)
			flip[i] ^= 0x40
			r, err := NewReader(bytes.NewReader(flip))
			if err == nil {
				for err == nil {
					_, err = r.Next()
				}
			}
			if err == nil || errors.Is(err, io.EOF) {
				t.Fatalf("bit flip at offset %d decoded cleanly", i)
			}
		}
	})
	t.Run("unknown frame", func(t *testing.T) {
		pre := encodeStream(t, hdr, nil, "")
		bogus := append(append([]byte(nil), pre[:len(pre)-9]...), 0x7f)
		r, err := NewReader(bytes.NewReader(bogus))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("unknown frame type: err = %v, want ErrCorrupt", err)
		}
	})
	t.Run("row outside grid", func(t *testing.T) {
		if err := func() error {
			var buf bytes.Buffer
			w, err := NewWriter(&buf, hdr)
			if err != nil {
				return err
			}
			return w.WriteRow(&ScenarioResult{Mix: []string{"not", "in", "grid"}, Config: "config#1"})
		}(); err == nil {
			t.Fatal("WriteRow accepted a mix outside the header grid")
		}
	})
}

// TestWriterSingleWritePerFrame pins the framing granularity the fleet
// failover test relies on: the preamble, each row, each error frame and
// the end frame are one underlying Write apiece, so a flush between
// frames puts whole frames on the socket.
func TestWriterSingleWritePerFrame(t *testing.T) {
	var cw countingWriter
	w, err := NewWriter(&cw, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range testRows() {
		if err := w.WriteRow(sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(testRows()) + 1; cw.writes != want {
		t.Fatalf("writer issued %d Writes, want %d", cw.writes, want)
	}
}

type countingWriter struct{ writes int }

func (c *countingWriter) Write(p []byte) (int, error) { c.writes++; return len(p), nil }

func TestRequestRoundTrip(t *testing.T) {
	reqs := []EvalRequest{
		{},
		{Kind: "predict", Mix: []string{"mcf", "lbm"}},
		{
			Kind:       "compare",
			Mixes:      [][]string{{"mcf", "lbm"}, nil, {}, {"gamess"}},
			Config:     "config#1",
			Configs:    []string{"config#1", "config#4"},
			Contention: "paper", TopK: 7, Stream: true, Format: "wire",
		},
		{Kind: "simulate", Mixes: [][]string{}, Configs: []string{}, TopK: -3},
	}
	for i, req := range reqs {
		b := EncodeRequest(req)
		got, err := DecodeRequest(b)
		if err != nil {
			t.Fatalf("req %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("req %d drift:\n got %+v\nwant %+v", i, got, req)
		}
	}
}

func TestRequestCorrupt(t *testing.T) {
	b := EncodeRequest(EvalRequest{Kind: "compare", Mixes: [][]string{{"mcf"}}, Stream: true})
	if _, err := DecodeRequest(b[:len(b)/2]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated request: %v, want ErrCorrupt", err)
	}
	skew := append([]byte(nil), b...)
	skew[4] ^= 0xFF
	if _, err := DecodeRequest(skew); !errors.Is(err, ErrVersion) {
		t.Fatalf("skewed request: %v, want ErrVersion", err)
	}
	for i := 6; i < len(b); i++ {
		flip := append([]byte(nil), b...)
		flip[i] ^= 0x40
		if _, err := DecodeRequest(flip); err == nil {
			t.Fatalf("bit flip at offset %d decoded cleanly", i)
		}
	}
	if _, err := DecodeRequest([]byte("MPWQ")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short doc: %v, want ErrCorrupt", err)
	}
}

// FuzzWireRoundTrip fuzzes both decoders with arbitrary bytes: they
// must never panic, and any stream or request document that decodes
// cleanly must re-encode deterministically — encode(decode(x)) must
// itself decode, and re-encoding THAT decode must reproduce the same
// bytes (stable fixed point, robust to NaN payloads where DeepEqual is
// not). Seeds mirror FuzzCodecRoundTrip: valid bytes plus truncated,
// bit-flipped and version-skewed variants.
func FuzzWireRoundTrip(f *testing.F) {
	sb := encodeStream(f, testHeader(), testRows(), "")
	eb := encodeStream(f, testHeader(), testRows()[:1], "engine failure")
	qb := EncodeRequest(EvalRequest{Kind: "compare", Mixes: [][]string{{"mcf", "lbm"}}, Configs: []string{"config#1"}, Stream: true})
	for _, seed := range [][]byte{sb, eb, qb} {
		f.Add(append([]byte(nil), seed...))
		f.Add(append([]byte(nil), seed[:len(seed)/2]...))
		flip := append([]byte(nil), seed...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
		skew := append([]byte(nil), seed...)
		skew[4] ^= 0xFF
		f.Add(skew)
	}

	reencode := func(t *testing.T, hdr StreamHeader, rows []*ScenarioResult, trailer string) ([]byte, bool) {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, hdr)
		if err != nil {
			t.Fatalf("re-encode NewWriter: %v", err)
		}
		for _, sc := range rows {
			if err := w.WriteRow(sc); err != nil {
				// A fuzzed header can hold degenerate grids (nil mixes) the
				// service never produces and the Writer refuses; not a bug.
				return nil, false
			}
		}
		if trailer != "" {
			if err := w.WriteError(trailer); err != nil {
				t.Fatalf("re-encode WriteError: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatalf("re-encode Close: %v", err)
		}
		return buf.Bytes(), true
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			var rows []*ScenarioResult
			var trailer string
			for {
				sc, err := r.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					var serr *StreamError
					if errors.As(err, &serr) {
						trailer = serr.Msg
						break
					}
					return // corrupt mid-stream: nothing more to check
				}
				rows = append(rows, sc)
			}
			if trailer == "" && len(rows) == 0 && len(r.Header().Mixes) == 0 {
				// Empty streams round-trip trivially; still exercise it.
			}
			enc1, ok := reencode(t, r.Header(), rows, trailer)
			if !ok {
				return
			}
			hdr2, rows2, err := decodeStream(t, enc1)
			if err != nil {
				var serr *StreamError
				if !errors.As(err, &serr) || serr.Msg != trailer {
					t.Fatalf("re-encoded stream failed to decode: %v", err)
				}
			}
			enc2, ok := reencode(t, hdr2, rows2, trailer)
			if !ok {
				t.Fatal("re-encode of re-decoded stream refused rows the first pass accepted")
			}
			if !bytes.Equal(enc1, enc2) {
				t.Fatalf("re-encode not a fixed point: %d vs %d bytes", len(enc1), len(enc2))
			}
		}
		if req, err := DecodeRequest(data); err == nil {
			enc := EncodeRequest(req)
			again, err := DecodeRequest(enc)
			if err != nil {
				t.Fatalf("re-encoded request failed to decode: %v", err)
			}
			if !reflect.DeepEqual(again, req) {
				t.Fatalf("request drift:\n got %+v\nwant %+v", again, req)
			}
		}
	})
}
