package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

func TestReaderImplementsSource(t *testing.T) {
	r, err := NewReader(simpleSpec(), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	var src Source = r
	if src.Name() != "test" {
		t.Fatalf("Name = %q", src.Name())
	}
	if src.Instructions() != 10_000 {
		t.Fatalf("Instructions = %d", src.Instructions())
	}
}

func TestNewRecordedValidation(t *testing.T) {
	if _, err := NewRecorded("", []Ref{{Gap: 1}}); err == nil {
		t.Fatal("empty name should error")
	}
	if _, err := NewRecorded("x", []Ref{{Gap: 0}}); err == nil {
		t.Fatal("zero gap should error")
	}
	if _, err := NewRecorded("x", []Ref{{Gap: 1, GapCycles: -1}}); err == nil {
		t.Fatal("negative gap cycles should error")
	}
	if _, err := NewRecorded("x", nil); err == nil {
		t.Fatal("empty trace should error")
	}
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := NewRecorded("x", []Ref{{Gap: 1}, {Gap: 1, GapCycles: c}}); err == nil {
			t.Errorf("gap cycles %v should error", c)
		}
	}
	if _, err := NewRecorded("x", []Ref{{Addr: 1<<AddrBits - 1, Gap: 1, GapCycles: math.MaxFloat64}}); err != nil {
		t.Fatalf("largest address and gap cycles rejected: %v", err)
	}
	for _, a := range []uint64{1 << AddrBits, 1<<AddrBits | 64, math.MaxUint64} {
		if _, err := NewRecorded("x", []Ref{{Addr: a, Gap: 1}}); err == nil {
			t.Errorf("address %#x should error", a)
		}
	}
}

// TestReadTraceRejectsUnsimulatable crafts trace files whose records
// would poison the simulator — a NaN or infinite gap cost, an address
// that collides with the core tag bits — and checks ReadTrace (and with
// it ImportTrace) refuses them, while the untouched file round-trips.
func TestReadTraceRejectsUnsimulatable(t *testing.T) {
	src, err := NewRecorded("crafted", []Ref{
		{Addr: 0x1000, Gap: 2, GapCycles: 1.5},
		{Addr: 0x2040, Write: true, Gap: 3, GapCycles: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, src); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	// Header: magic, version, name length, name, instruction count; then
	// records of address, gap cycles, gap and flags.
	second := 4 + 4 + 4 + len("crafted") + 8 + (8 + 8 + 4 + 1)
	if _, err := ReadTrace(bytes.NewReader(file)); err != nil {
		t.Fatalf("untouched file: %v", err)
	}
	for _, c := range []struct {
		field string // what the error must name
		off   int    // field offset in the record
		val   uint64
	}{
		{"gap cycles NaN", 8, math.Float64bits(math.NaN())},
		{"gap cycles +Inf", 8, math.Float64bits(math.Inf(1))},
		{"address 0x100000002040", 0, 0x2040 | 1<<AddrBits},
	} {
		bad := bytes.Clone(file)
		binary.LittleEndian.PutUint64(bad[second+c.off:], c.val)
		tr, err := ReadTrace(bytes.NewReader(bad))
		if err == nil {
			t.Errorf("%s: ReadTrace accepted %d instructions", c.field, tr.Instructions())
		} else if !strings.Contains(err.Error(), "ref 1 has "+c.field) {
			t.Errorf("%s: ReadTrace error %q does not name the field", c.field, err)
		}
	}
}

func TestRecordedReplay(t *testing.T) {
	refs := []Ref{
		{Addr: 0, Gap: 10, GapCycles: 5},
		{Addr: 64, Write: true, Gap: 20, GapCycles: 10},
		{Addr: 128, Dependent: true, Gap: 5, GapCycles: 2.5},
	}
	rec, err := NewRecorded("hand", refs)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Instructions() != 35 {
		t.Fatalf("instructions = %d", rec.Instructions())
	}
	for lap := 0; lap < 2; lap++ {
		for i := range refs {
			got, ok := rec.Next()
			if !ok || got != refs[i] {
				t.Fatalf("lap %d ref %d: %+v ok=%v", lap, i, got, ok)
			}
		}
		if _, ok := rec.Next(); ok {
			t.Fatal("trace should end")
		}
		rec.Reset()
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	rd, err := NewReader(simpleSpec(), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rd); err != nil {
		t.Fatal(err)
	}
	rec, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name() != rd.Name() || rec.Instructions() != rd.Instructions() {
		t.Fatalf("metadata lost: %q/%d", rec.Name(), rec.Instructions())
	}
	// Bit-exact replay of the original stream.
	rd.Reset()
	for {
		want, ok1 := rd.Next()
		got, ok2 := rec.Next()
		if ok1 != ok2 {
			t.Fatal("stream lengths differ")
		}
		if !ok1 {
			break
		}
		if got != want {
			t.Fatalf("ref differs: %+v vs %+v", got, want)
		}
	}
}

func TestWriteTraceResetsSource(t *testing.T) {
	rd, _ := NewReader(simpleSpec(), 10_000)
	rd.Next() // disturb position
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rd); err != nil {
		t.Fatal(err)
	}
	if rd.Pos() != 0 {
		t.Fatal("WriteTrace should leave the source reset")
	}
}

func TestReadTraceErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": {1, 2, 3, 4, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, data := range cases {
		if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// Wrong version.
	var buf bytes.Buffer
	rd, _ := NewReader(simpleSpec(), 1000)
	if err := WriteTrace(&buf, rd); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // corrupt version field
	if _, err := ReadTrace(bytes.NewReader(data)); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Fatalf("corrupted version: err = %v", err)
	}
}

func TestReadTraceTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	rd, _ := NewReader(simpleSpec(), 1000)
	if err := WriteTrace(&buf, rd); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadTrace(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Fatal("truncated record should error")
	}
}

func TestWriteTraceRejectsLongName(t *testing.T) {
	rec, _ := NewRecorded(strings.Repeat("x", 256), []Ref{{Gap: 1}})
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec); err == nil {
		t.Fatal("256-byte name should error")
	}
}

// TestWriteTraceRejectsWideGap: the file format stores gaps as uint32,
// so a gap of 2^32 or more must fail up front instead of writing a
// truncated gap that ReadTrace only rejects later as a gap-sum mismatch.
func TestWriteTraceRejectsWideGap(t *testing.T) {
	for _, gap := range []int64{1 << 32, 1<<32 + 5, math.MaxInt64} {
		rec, err := NewRecorded("wide", []Ref{
			{Addr: 0, Gap: 3, GapCycles: 3},
			{Addr: 64, Gap: gap, GapCycles: 1},
			{Addr: 128, Gap: 1, GapCycles: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		rec.Next() // WriteTrace must rewind on its own
		var buf bytes.Buffer
		if err := WriteTrace(&buf, rec); err == nil || !strings.Contains(err.Error(), "ref 1") {
			t.Fatalf("gap %d: WriteTrace = %v, want an error naming ref 1", gap, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("gap %d: WriteTrace wrote %d bytes before failing", gap, buf.Len())
		}
		if ref, ok := rec.Next(); !ok || ref.Gap != 3 {
			t.Fatalf("gap %d: source not rewound after the error", gap)
		}
	}

	// The widest representable gap still round-trips.
	rec, err := NewRecorded("widest", []Ref{{Addr: 64, Gap: math.MaxUint32, GapCycles: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Instructions() != math.MaxUint32 {
		t.Fatalf("round trip length %d, want %d", back.Instructions(), uint32(math.MaxUint32))
	}
}

// drainNext reads src to exhaustion one reference at a time.
func drainNext(src Source) []Ref {
	var out []Ref
	for {
		ref, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, ref)
	}
}

func TestReadBlockMatchesNext(t *testing.T) {
	r, err := NewReader(simpleSpec(), 50_000)
	if err != nil {
		t.Fatal(err)
	}
	want := drainNext(r)
	r.Reset()
	var got []Ref
	buf := make([]Ref, 37) // odd size: exercises short final blocks
	for {
		n := r.ReadBlock(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(want) {
		t.Fatalf("ReadBlock yielded %d refs, Next %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Recorded sources batch too.
	rec, err := NewRecorded("rec", want)
	if err != nil {
		t.Fatal(err)
	}
	if n := rec.ReadBlock(buf); n != len(buf) {
		t.Fatalf("recorded ReadBlock = %d, want %d", n, len(buf))
	}
	rec.Reset()
	if refs := drainNext(rec); len(refs) != len(want) {
		t.Fatalf("recorded drain after reset = %d refs", len(refs))
	}
}

// nextOnlySource hides the Reader's BlockSource implementation so the
// Cursor's fallback path is exercised.
type nextOnlySource struct{ r *Reader }

func (s nextOnlySource) Name() string        { return s.r.Name() }
func (s nextOnlySource) Instructions() int64 { return s.r.Instructions() }
func (s nextOnlySource) Next() (Ref, bool)   { return s.r.Next() }
func (s nextOnlySource) Reset()              { s.r.Reset() }

func TestCursorMatchesSource(t *testing.T) {
	mk := func() *Reader {
		r, err := NewReader(simpleSpec(), 50_000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := drainNext(mk())

	for _, tc := range []struct {
		name string
		src  Source
	}{
		{"block", mk()},
		{"fallback", nextOnlySource{mk()}},
	} {
		cur := NewCursor(tc.src)
		var got []Ref
		for ref := cur.Next(); ref != nil; ref = cur.Next() {
			got = append(got, *ref)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: cursor yielded %d refs, want %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: ref %d = %+v, want %+v", tc.name, i, got[i], want[i])
			}
		}

		// Reset mid-stream discards buffered refs and replays identically.
		cur.Reset()
		if ref := cur.Next(); ref == nil || *ref != want[0] {
			t.Fatalf("%s: after reset got %+v, want %+v", tc.name, ref, want[0])
		}
	}
}
