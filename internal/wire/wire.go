// Package wire provides the big-endian serialization primitives shared by
// the objfile container and the codec payload encoders: a sticky-error
// writer over the scalar/string/word-slice vocabulary every on-disk
// structure is built from, and a reader decoding that vocabulary from one
// in-memory frame, whose bounds and size limits keep garbage files from
// allocating absurd buffers.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Limits on variable-length fields.
const (
	// MaxStr bounds serialized strings (names, symbols).
	MaxStr = 1 << 12
	// MaxCount bounds element counts and byte-slice lengths.
	MaxCount = 1 << 26
)

// Writer serializes big-endian values with a sticky error: after the first
// failure every subsequent call is a no-op, so call sites stay linear and
// check Err once at the end.
type Writer struct {
	w   io.Writer
	err error
	buf [8]byte
}

// NewWriter wraps dst. Buffering is the caller's concern.
func NewWriter(dst io.Writer) *Writer { return &Writer{w: dst} }

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Fail records an error from the caller's own validation.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.Bytes(append(w.buf[:0], v)) }

// U16 writes a big-endian uint16.
func (w *Writer) U16(v uint16) { w.Bytes(binary.BigEndian.AppendUint16(w.buf[:0], v)) }

// U32 writes a big-endian uint32.
func (w *Writer) U32(v uint32) { w.Bytes(binary.BigEndian.AppendUint32(w.buf[:0], v)) }

// U64 writes a big-endian uint64.
func (w *Writer) U64(v uint64) { w.Bytes(binary.BigEndian.AppendUint64(w.buf[:0], v)) }

// Bytes writes raw bytes with no length prefix.
func (w *Writer) Bytes(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

// Blob writes a uint32 length prefix followed by the bytes.
func (w *Writer) Blob(b []byte) {
	if len(b) > MaxCount {
		w.Fail(fmt.Errorf("wire: blob too long (%d)", len(b)))
		return
	}
	w.U32(uint32(len(b)))
	w.Bytes(b)
}

// Str writes a uint16 length prefix followed by the string bytes.
func (w *Writer) Str(s string) {
	if len(s) > MaxStr {
		w.Fail(fmt.Errorf("wire: string too long (%d)", len(s)))
		return
	}
	w.U16(uint16(len(s)))
	w.Bytes([]byte(s))
}

// Words writes a uint32 count followed by each word.
func (w *Writer) Words(ws []uint32) {
	w.U32(uint32(len(ws)))
	b := make([]byte, 0, 4*len(ws))
	for _, x := range ws {
		b = binary.BigEndian.AppendUint32(b, x)
	}
	w.Bytes(b)
}

// FormatError reports a field whose value no well-formed frame holds: a
// length or count above the limits, a wrong magic, version or method byte,
// bytes left after the last field, or a codec's own structural check.
type FormatError struct {
	Field  string // what was rejected, e.g. "length", "magic", "trailing bytes"
	Offset int    // the decoding cursor at the rejection: just past the field
	Value  int64  // the rejected value
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("wire: implausible %s %d at offset %d", e.Field, e.Value, e.Offset)
}

// Reader decodes big-endian values from one frame held in memory, with a
// sticky error mirroring Writer: after the first failure every call
// returns zero values. A length that runs past the end of the frame fails
// with io.ErrUnexpectedEOF before anything is allocated, so a frame can
// claim no more memory than it holds. Bytes, Blob and Rest return
// subslices of the frame, not copies.
type Reader struct {
	b   []byte
	off int // the cursor: offset of the next field
	err error
}

// NewReader decodes the frame b, which must stay unmodified while
// anything decoded from it is in use.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Fail records an error from the caller's own validation.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Reject records a *FormatError on the field just read, unless the reader
// has already failed.
func (r *Reader) Reject(field string, value int64) {
	r.Fail(&FormatError{Field: field, Offset: r.off, Value: value})
}

// take consumes the next n bytes, or returns nil after a failure or when
// fewer than n remain.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b)-r.off {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// zeros is what a scalar field reads as after a failure.
var zeros [8]byte

// scalar consumes an n-byte field, n ≤ 8, or returns zeros after a failure.
func (r *Reader) scalar(n int) []byte {
	if b := r.take(n); b != nil {
		return b
	}
	return zeros[:n]
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.scalar(1)[0] }

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 { return binary.BigEndian.Uint16(r.scalar(2)) }

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 { return binary.BigEndian.Uint32(r.scalar(4)) }

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 { return binary.BigEndian.Uint64(r.scalar(8)) }

// Bytes reads exactly n raw bytes, rejecting implausible lengths.
func (r *Reader) Bytes(n int) []byte { return r.bytes(n, MaxCount, "length") }

// bytes reads n bytes after checking n against limit.
func (r *Reader) bytes(n, limit int, what string) []byte {
	if r.err == nil && (n < 0 || n > limit) {
		r.Reject(what, int64(n))
	}
	return r.take(n)
}

// Blob reads a uint32 length prefix and that many bytes.
func (r *Reader) Blob() []byte { return r.Bytes(int(r.U32())) }

// Str reads a uint16 length prefix and that many string bytes; a string
// longer than MaxStr, which Writer refuses, is rejected.
func (r *Reader) Str() string { return string(r.bytes(int(r.U16()), MaxStr, "string length")) }

// Words reads a uint32 count and that many words.
func (r *Reader) Words() []uint32 {
	n := r.Count(int(r.U32()), "word")
	b := r.take(4 * n)
	if b == nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	return out
}

// Count validates an element count read by the caller against MaxCount.
// Its elements are then read one by one, so a count the frame cannot hold
// fails at the first missing element; never size a buffer from a count
// alone: Cap bounds it by the bytes that remain.
func (r *Reader) Count(n int, what string) int {
	if r.err == nil && (n < 0 || n > MaxCount) {
		r.Reject(what+" count", int64(n))
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Cap is the capacity to reserve for n elements, each encoded in at least
// size bytes: n, or fewer when the bytes that remain cannot hold n such
// elements.
func (r *Reader) Cap(n, size int) int { return min(n, (len(r.b)-r.off)/size) }

// Rest consumes and returns every byte not yet read.
func (r *Reader) Rest() []byte { return r.take(len(r.b) - r.off) }

// End finishes decoding: bytes left after the last field are a
// *FormatError on "trailing bytes". It returns Err.
func (r *Reader) End() error {
	if rest := len(r.b) - r.off; r.err == nil && rest > 0 {
		r.Reject("trailing bytes", int64(rest))
	}
	return r.err
}
