// Package objfile serializes linked programs (PPX1) and compressed images
// (PPCZ) to byte streams, giving the command-line tools a stable on-disk
// interchange format. Everything is big-endian via the wire primitives.
//
// The PPCZ container is versioned and self-describing. Version 2 frames
// are
//
//	"PPCZ" 0xFF version=2 method payload...
//
// where method is the codec registry's stable frame byte and the payload
// is that codec's image serialization, so any tool can open any image
// without being told its encoding. Version 1 files (dictionary images
// only) carried the body directly after the magic with the scheme byte
// inside the body; they are detected by their first post-magic byte — a
// name-length high byte, always below the 0xFF sentinel — and still load.
package objfile

import (
	"bufio"
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

	// frameSentinel introduces a versioned frame header. Version-1 files
	// cannot produce it there: the byte after the magic is the high byte of
	// a uint16 name length bounded by wire.MaxStr (1<<12).
	frameSentinel = 0xFF
)

// WriteProgram serializes a linked program.
func WriteProgram(dst io.Writer, p *program.Program) error {
	bw := bufio.NewWriter(dst)
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

// ReadProgram deserializes and validates a program.
func ReadProgram(src io.Reader) (*program.Program, error) {
	r := wire.NewReader(bufio.NewReader(src))
	magic := r.Bytes(4)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if string(magic) != string(magicProgram[:]) {
		return nil, fmt.Errorf("objfile: bad program magic %q", magic)
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
	if err := r.Err(); err != nil {
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

// WriteDictionary serializes a standalone (shared/ROM) dictionary.
func WriteDictionary(dst io.Writer, entries []dictionary.Entry) error {
	bw := bufio.NewWriter(dst)
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
	r := wire.NewReader(bufio.NewReader(src))
	magic := r.Bytes(4)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if string(magic) != string(magicDict[:]) {
		return nil, fmt.Errorf("objfile: bad dictionary magic %q", magic)
	}
	n := r.Count(int(r.U32()), "entry")
	if err := r.Err(); err != nil {
		return nil, err
	}
	out := make([]dictionary.Entry, 0, n)
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
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteImage serializes a compressed image of any registered codec as a
// current-version self-describing frame: the method byte in the header is
// all a reader needs to reconstruct the image.
func WriteImage(dst io.Writer, img codec.Image) error {
	c, err := codec.ByMethod(img.Method())
	if err != nil {
		return fmt.Errorf("objfile: %w", err)
	}
	bw := bufio.NewWriter(dst)
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

// WriteImageV1 serializes a dictionary image as a version-1 frame (no
// header; the scheme byte lives in the body). Kept for interoperability
// with pre-versioning readers and as the writer side of the backward-
// compatibility tests; new files should use WriteImage.
func WriteImageV1(dst io.Writer, img *core.Image) error {
	bw := bufio.NewWriter(dst)
	if _, err := bw.Write(magicImage[:]); err != nil {
		return err
	}
	if err := core.WriteImagePayload(bw, img); err != nil {
		return err
	}
	return bw.Flush()
}

// OpenImage deserializes a compressed image of any version: the codec is
// inferred from the frame's method byte (version 2), or defaulted to the
// dictionary codec recorded in the old in-body scheme byte (version 1).
// Callers dispatch on the concrete type or on the codec.Executable /
// codec.Auditable facets.
func OpenImage(src io.Reader) (codec.Image, error) {
	br := bufio.NewReader(src)
	r := wire.NewReader(br)
	magic := r.Bytes(4)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if string(magic) != string(magicImage[:]) {
		return nil, fmt.Errorf("objfile: bad image magic %q", magic)
	}
	next, err := br.Peek(1)
	if err != nil {
		return nil, truncatedFrame(err)
	}
	if next[0] != frameSentinel {
		// Version 1: the body follows the magic directly; its scheme byte
		// selects the dictionary codec.
		return core.ReadImagePayload(br)
	}
	br.Discard(1)
	version, err := br.ReadByte()
	if err != nil {
		return nil, truncatedFrame(err)
	}
	if version != ImageVersion {
		return nil, fmt.Errorf("objfile: unsupported image version %d (have %d)", version, ImageVersion)
	}
	method, err := br.ReadByte()
	if err != nil {
		return nil, truncatedFrame(err)
	}
	c, err := codec.ByMethod(codec.Method(method))
	if err != nil {
		return nil, fmt.Errorf("objfile: %w", err)
	}
	return c.Open(br)
}

// truncatedFrame reports a failed frame-header read. The header is inside
// the frame, so running out of input there is io.ErrUnexpectedEOF, as in
// wire.
func truncatedFrame(err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("objfile: truncated image frame: %w", err)
}

// ReadImage deserializes a dictionary-scheme compressed image of either
// container version. It is the typed convenience over OpenImage for
// callers that specifically need the paper's dictionary method.
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
