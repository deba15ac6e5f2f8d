// Package wire provides the big-endian serialization primitives shared by
// the objfile container and the codec payload encoders: sticky-error
// writers and readers over the scalar/string/word-slice vocabulary every
// on-disk structure is built from, with the size limits that guard against
// garbage files allocating absurd buffers.
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

// Reader deserializes big-endian values with a sticky error mirroring
// Writer: after the first failure every call returns zero values.
type Reader struct {
	r   io.Reader
	err error
	buf [8]byte
}

// NewReader wraps src. Buffering is the caller's concern.
func NewReader(src io.Reader) *Reader { return &Reader{r: src} }

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Fail records an error from the caller's own validation.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.fill(1)[0] }

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 { return binary.BigEndian.Uint16(r.fill(2)) }

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 { return binary.BigEndian.Uint32(r.fill(4)) }

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 { return binary.BigEndian.Uint64(r.fill(8)) }

// fill reads n ≤ 8 bytes into the scratch buffer and returns them, or
// zeros after a failure.
func (r *Reader) fill(n int) []byte {
	b := r.buf[:n]
	if r.err == nil {
		r.err = readFull(r.r, b)
	}
	if r.err != nil {
		clear(b)
	}
	return b
}

// Bytes reads exactly n raw bytes, rejecting implausible lengths.
func (r *Reader) Bytes(n int) []byte {
	if r.err == nil && (n < 0 || n > MaxCount) {
		r.err = fmt.Errorf("wire: implausible length %d", n)
	}
	return r.read(n)
}

// read reads exactly n bytes, or returns nil after a failure.
func (r *Reader) read(n int) []byte {
	if r.err != nil {
		return nil
	}
	b := make([]byte, n)
	if err := readFull(r.r, b); err != nil {
		r.err = err
		return nil
	}
	return b
}

// readFull is io.ReadFull inside a frame: every field a reader asks for
// is part of the frame, so running out of input before it, even at a
// field boundary, is io.ErrUnexpectedEOF and never a bare io.EOF.
func readFull(src io.Reader, b []byte) error {
	_, err := io.ReadFull(src, b)
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Blob reads a uint32 length prefix and that many bytes.
func (r *Reader) Blob() []byte { return r.Bytes(int(r.U32())) }

// Str reads a uint16 length prefix and that many string bytes.
func (r *Reader) Str() string { return string(r.Bytes(int(r.U16()))) }

// Words reads a uint32 count and that many words.
func (r *Reader) Words() []uint32 {
	n := int(r.U32())
	if r.err != nil {
		return nil
	}
	if n > MaxCount {
		r.err = fmt.Errorf("wire: implausible word count %d", n)
		return nil
	}
	b := r.read(4 * n)
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
func (r *Reader) Count(n int, what string) int {
	if r.err == nil && (n < 0 || n > MaxCount) {
		r.err = fmt.Errorf("wire: implausible %s count %d", what, n)
	}
	if r.err != nil {
		return 0
	}
	return n
}
