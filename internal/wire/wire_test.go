package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// record is one value of every field type, written and read in order.
type record struct {
	u8    uint8
	u16   uint16
	u32   uint32
	u64   uint64
	raw   []byte
	blob  []byte
	str   string
	words []uint32
	count uint32
}

var sample = record{
	u8: 0xA5, u16: 0xBEEF, u32: 0xDEADBEEF, u64: 0x0123456789ABCDEF,
	raw: []byte{1, 2, 3}, blob: []byte("payload"), str: "main",
	words: []uint32{0, 1, 0x80000000, 0xFFFFFFFF}, count: 7,
}

func (rec record) write(w *Writer) {
	w.U8(rec.u8)
	w.U16(rec.u16)
	w.U32(rec.u32)
	w.U64(rec.u64)
	w.Bytes(rec.raw)
	w.Blob(rec.blob)
	w.Str(rec.str)
	w.Words(rec.words)
	w.U32(rec.count)
}

func readRecord(r *Reader) record {
	var rec record
	rec.u8 = r.U8()
	rec.u16 = r.U16()
	rec.u32 = r.U32()
	rec.u64 = r.U64()
	rec.raw = r.Bytes(3)
	rec.blob = r.Blob()
	rec.str = r.Str()
	rec.words = r.Words()
	rec.count = uint32(r.Count(int(r.U32()), "element"))
	return rec
}

func encode(t *testing.T, rec record) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec.write(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	data := encode(t, sample)
	want := []byte{
		0xA5, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF,
		0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF,
		1, 2, 3,
		0, 0, 0, 7, 'p', 'a', 'y', 'l', 'o', 'a', 'd',
		0, 4, 'm', 'a', 'i', 'n',
		0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF,
		0, 0, 0, 7,
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("encoding\n got % x\nwant % x", data, want)
	}
	r := NewReader(data)
	got := readRecord(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sample) {
		t.Fatalf("round trip = %+v, want %+v", got, sample)
	}
	if err := r.End(); err != nil {
		t.Errorf("reader left bytes unread: %v", err)
	}
}

// TestTrailingBytes: a frame with bytes after its last field fails End
// with a *FormatError at the cursor.
func TestTrailingBytes(t *testing.T) {
	data := append(encode(t, sample), 0, 0)
	r := NewReader(data)
	readRecord(r)
	var fe *FormatError
	if err := r.End(); !errors.As(err, &fe) || fe.Field != "trailing bytes" || fe.Value != 2 || fe.Offset != len(data)-2 {
		t.Fatalf("End = %v, want a *FormatError on 2 trailing bytes at %d", err, len(data)-2)
	}
}

// TestEmptyWords: an empty word slice reads back empty, not nil.
func TestEmptyWords(t *testing.T) {
	var buf bytes.Buffer
	NewWriter(&buf).Words(nil)
	r := NewReader(buf.Bytes())
	if ws := r.Words(); ws == nil || len(ws) != 0 || r.Err() != nil {
		t.Fatalf("Words = %v, %v", ws, r.Err())
	}
}

// TestTruncation cuts the encoding at every length short of complete,
// field boundaries and the empty input included: reading must fail with
// io.ErrUnexpectedEOF, never a bare io.EOF, and the last field must read
// as its zero value.
func TestTruncation(t *testing.T) {
	data := encode(t, sample)
	for n := 0; n < len(data); n++ {
		r := NewReader(data[:n])
		got := readRecord(r)
		if err := r.Err(); err != io.ErrUnexpectedEOF {
			t.Fatalf("cut at %d: err = %v, want io.ErrUnexpectedEOF", n, err)
		}
		if got.count != 0 {
			t.Fatalf("cut at %d: last field = %d after a failure", n, got.count)
		}
	}
}

type failWriter struct{ writes int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.writes++
	return 0, errors.New("disk full")
}

// TestStickyErrors: after the first failure a Writer writes nothing more
// and a Reader returns zero values, and Err reports the first failure.
func TestStickyErrors(t *testing.T) {
	fw := &failWriter{}
	w := NewWriter(fw)
	sample.write(w)
	w.Fail(errors.New("second"))
	if fw.writes != 1 || w.Err() == nil || w.Err().Error() != "disk full" {
		t.Fatalf("writes = %d, err = %v; want one write and the first error", fw.writes, w.Err())
	}

	first := errors.New("bad header")
	r := NewReader(encode(t, sample))
	r.Fail(first)
	r.Fail(errors.New("second"))
	if got := readRecord(r); !reflect.DeepEqual(got, record{}) {
		t.Fatalf("read after failure = %+v, want zero values", got)
	}
	if r.Err() != first {
		t.Fatalf("err = %v, want the first failure", r.Err())
	}
}

// TestImplausibleLengths: counts and lengths above MaxCount (or
// negative), and strings above MaxStr, fail with a *FormatError before
// anything is allocated or read, and an oversized string fails on write.
func TestImplausibleLengths(t *testing.T) {
	var big bytes.Buffer
	NewWriter(&big).U32(MaxCount + 1)
	for name, read := range map[string]func(*Reader) bool{
		"Bytes":    func(r *Reader) bool { return r.Bytes(MaxCount+1) == nil },
		"negative": func(r *Reader) bool { return r.Bytes(-1) == nil },
		"Blob":     func(r *Reader) bool { return r.Blob() == nil },
		"Words":    func(r *Reader) bool { return r.Words() == nil },
		"Count":    func(r *Reader) bool { return r.Count(MaxCount+1, "entry") == 0 },
		"Str":      func(r *Reader) bool { return r.Str() == "" },
	} {
		data := big.Bytes()
		if name == "Str" {
			data = []byte{(MaxStr + 1) >> 8, (MaxStr + 1) & 0xFF}
		}
		r := NewReader(data)
		var fe *FormatError
		if !read(r) || !errors.As(r.Err(), &fe) || !strings.Contains(r.Err().Error(), "implausible") {
			t.Errorf("%s: err = %v, want an implausible-length *FormatError", name, r.Err())
		}
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Str(strings.Repeat("x", MaxStr+1))
	if w.Err() == nil || buf.Len() != 0 {
		t.Errorf("Str: err = %v after %d bytes, want a rejected write", w.Err(), buf.Len())
	}
}

// TestCapBoundsByRemainingBytes: a count is reserved in full only when the
// unread bytes can hold that many elements.
func TestCapBoundsByRemainingBytes(t *testing.T) {
	r := NewReader(make([]byte, 4+36))
	r.U32()
	for _, tc := range []struct{ n, size, want int }{
		{3, 9, 3},
		{4, 9, 4},
		{5, 9, 4},
		{MaxCount, 9, 4},
		{MaxCount, 6, 6},
		{0, 9, 0},
	} {
		if got := r.Cap(tc.n, tc.size); got != tc.want {
			t.Errorf("Cap(%d, %d) with 36 bytes left = %d, want %d", tc.n, tc.size, got, tc.want)
		}
	}
	r.Rest()
	if got := r.Cap(1, 1); got != 0 {
		t.Errorf("Cap(1, 1) at the end = %d, want 0", got)
	}
}
