// Package objfile serializes linked programs (PPX1), standalone
// dictionaries (PPDX) and compressed images (PPCZ) to byte streams, giving
// the command-line tools a stable on-disk interchange format. Everything is
// big-endian via the wire primitives. A reader takes a whole file, at most
// wire.MaxCount bytes, into memory and decodes it from that one slice; a
// file with bytes after its last field is rejected.
//
// The PPCZ container is versioned and self-describing. Its frames are
//
//	"PPCZ" 0xFF version=2 method payload...
//
// where method is the codec registry's stable frame byte and the payload
// is that codec's image serialization, so any tool can open any image
// without being told its encoding.
package objfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/codec"
	_ "repro/internal/codecs" // populate the registry for OpenImage
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/program"
	"repro/internal/wire"
)

// Magic numbers.
var (
	magicProgram = [4]byte{'P', 'P', 'X', '1'}
	magicImage   = [4]byte{'P', 'P', 'C', 'Z'}
	magicDict    = [4]byte{'P', 'P', 'D', 'X'}
)

// PPCZ container versioning.
const (
	// ImageVersion is the current container version.
	ImageVersion = 2

	// frameSentinel introduces the frame header.
	frameSentinel = 0xFF

	// headerLen is the frame's length before the codec payload: magic,
	// sentinel, version and method.
	headerLen = 7
)

// readFile reads a whole file into memory and checks its magic. A file
// longer than wire.MaxCount, or not starting with magic, fails with a
// *wire.FormatError.
func readFile(src io.Reader, magic [4]byte) (*wire.Reader, error) {
	// Sized up front when src can tell its length, as a bytes.Reader can:
	// growing to fit allocates several times the file on the way, and an
	// oversized file is refused unread.
	var buf bytes.Buffer
	if s, ok := src.(interface{ Len() int }); ok {
		n := s.Len()
		if n > wire.MaxCount {
			return nil, &wire.FormatError{Field: "file length", Value: int64(n)}
		}
		buf.Grow(n + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(io.LimitReader(src, wire.MaxCount+1)); err != nil {
		return nil, err
	}
	r := wire.NewReader(buf.Bytes())
	if buf.Len() > wire.MaxCount {
		r.Reject("file length", int64(buf.Len()))
	}
	if m := r.U32(); r.Err() == nil && m != binary.BigEndian.Uint32(magic[:]) {
		r.Reject("magic", int64(m))
	}
	return r, r.Err()
}

// fileWriter buffers a file's writes to dst and refuses, with a
// *wire.FormatError, to write more than wire.MaxCount bytes, the most
// readFile accepts.
func fileWriter(dst io.Writer) *bufio.Writer { return bufio.NewWriter(&capWriter{w: dst}) }

type capWriter struct {
	w io.Writer
	n int // bytes written so far
}

func (c *capWriter) Write(b []byte) (int, error) {
	if c.n+len(b) > wire.MaxCount {
		return 0, &wire.FormatError{Field: "file length", Offset: c.n, Value: int64(c.n + len(b))}
	}
	n, err := c.w.Write(b)
	c.n += n
	return n, err
}

// WriteProgram serializes a linked program. A program whose file would be
// longer than wire.MaxCount is refused.
func WriteProgram(dst io.Writer, p *program.Program) error {
	bw := fileWriter(dst)
	w := wire.NewWriter(bw)
	w.Bytes(magicProgram[:])
	w.Str(p.Name)
	w.U32(p.TextBase)
	w.U32(p.DataBase)
	w.U32(uint32(p.Entry))
	w.Words(p.Text)
	w.Blob(p.Data)
	w.U32(uint32(len(p.Symbols)))
	for _, s := range p.Symbols {
		w.Str(s.Name)
		w.U32(uint32(s.Word))
	}
	w.U32(uint32(len(p.JumpTableSlots)))
	for _, s := range p.JumpTableSlots {
		w.U32(uint32(s))
	}
	writeRanges(w, p.Prologue)
	writeRanges(w, p.Epilogue)
	if err := w.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

func writeRanges(w *wire.Writer, rs []program.Range) {
	w.U32(uint32(len(rs)))
	for _, r := range rs {
		w.U32(uint32(r.Start))
		w.U32(uint32(r.End))
	}
}

// ReadProgram deserializes and validates a program. Data is a subslice of
// the file's bytes.
func ReadProgram(src io.Reader) (*program.Program, error) {
	r, err := readFile(src, magicProgram)
	if err != nil {
		return nil, err
	}
	p := &program.Program{}
	p.Name = r.Str()
	p.TextBase = r.U32()
	p.DataBase = r.U32()
	p.Entry = int(r.U32())
	p.Text = r.Words()
	p.Data = r.Blob()
	nsym := r.Count(int(r.U32()), "symbol")
	for i := 0; i < nsym && r.Err() == nil; i++ {
		name := r.Str()
		p.Symbols = append(p.Symbols, program.Symbol{Name: name, Word: int(r.U32())})
	}
	njt := r.Count(int(r.U32()), "jump-table slot")
	for i := 0; i < njt && r.Err() == nil; i++ {
		p.JumpTableSlots = append(p.JumpTableSlots, int(r.U32()))
	}
	p.Prologue = readRanges(r)
	p.Epilogue = readRanges(r)
	if err := r.End(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("objfile: %w", err)
	}
	return p, nil
}

func readRanges(r *wire.Reader) []program.Range {
	n := r.Count(int(r.U32()), "range")
	var out []program.Range
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, program.Range{Start: int(r.U32()), End: int(r.U32())})
	}
	return out
}

// WriteDictionary serializes a standalone (shared/ROM) dictionary. A
// dictionary whose file would be longer than wire.MaxCount is refused.
func WriteDictionary(dst io.Writer, entries []dictionary.Entry) error {
	bw := fileWriter(dst)
	w := wire.NewWriter(bw)
	w.Bytes(magicDict[:])
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		if len(e.Words) > 255 {
			return fmt.Errorf("objfile: entry of %d words", len(e.Words))
		}
		w.U8(uint8(len(e.Words)))
		for _, x := range e.Words {
			w.U32(x)
		}
		w.U32(uint32(e.Uses))
	}
	if err := w.Err(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadDictionary deserializes a standalone dictionary.
func ReadDictionary(src io.Reader) ([]dictionary.Entry, error) {
	r, err := readFile(src, magicDict)
	if err != nil {
		return nil, err
	}
	n := r.Count(int(r.U32()), "entry")
	var out []dictionary.Entry
	for i := 0; i < n && r.Err() == nil; i++ {
		k := int(r.U8())
		if k == 0 {
			// An empty entry would compress to a codeword that expands to
			// nothing; reject it as the image reader does.
			r.Fail(&core.HeaderError{Field: "entry length", Value: 0, Min: 1, Limit: math.MaxUint8})
			break
		}
		words := make([]uint32, k)
		for j := range words {
			words[j] = r.U32()
		}
		uses := int(r.U32())
		out = append(out, dictionary.Entry{Words: words, Uses: uses})
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteImage serializes a compressed image of any registered codec as a
// current-version self-describing frame: the method byte in the header is
// all a reader needs to reconstruct the image. An image whose frame would
// be longer than wire.MaxCount is refused.
func WriteImage(dst io.Writer, img codec.Image) error {
	c, err := codec.ByMethod(img.Method())
	if err != nil {
		return fmt.Errorf("objfile: %w", err)
	}
	bw := fileWriter(dst)
	w := wire.NewWriter(bw)
	w.Bytes(magicImage[:])
	w.U8(frameSentinel)
	w.U8(ImageVersion)
	w.U8(uint8(img.Method()))
	if err := w.Err(); err != nil {
		return err
	}
	if err := c.WriteImage(bw, img); err != nil {
		return err
	}
	return bw.Flush()
}

// OpenImage deserializes a compressed image of any registered codec,
// inferred from the frame's method byte. A wrong magic, sentinel, version
// or method byte fails with a *wire.FormatError, as do the payload's own
// structural rejections, whose offsets are then from the start of the
// file. Callers dispatch on the concrete type or on the codec.Executable /
// codec.Auditable facets.
func OpenImage(src io.Reader) (codec.Image, error) {
	r, err := readFile(src, magicImage)
	if err != nil {
		return nil, err
	}
	if s := r.U8(); r.Err() == nil && s != frameSentinel {
		r.Reject("version", int64(s))
	}
	if v := r.U8(); r.Err() == nil && v != ImageVersion {
		r.Reject("version", int64(v))
	}
	m := r.U8()
	c, err := codec.ByMethod(codec.Method(m))
	if r.Err() == nil && err != nil {
		r.Reject("method", int64(m))
	}
	payload := r.Rest()
	if err := r.Err(); err != nil {
		return nil, err
	}
	img, err := c.Open(payload)
	var fe *wire.FormatError
	if errors.As(err, &fe) {
		fe.Offset += headerLen
	}
	return img, err
}

// ReadImage deserializes a dictionary-scheme compressed image. It is the
// typed convenience over OpenImage for callers that specifically need the
// paper's dictionary method.
func ReadImage(src io.Reader) (*core.Image, error) {
	img, err := OpenImage(src)
	if err != nil {
		return nil, err
	}
	di, ok := img.(*core.Image)
	if !ok {
		return nil, fmt.Errorf("objfile: image is %T, not a dictionary image", img)
	}
	return di, nil
}
