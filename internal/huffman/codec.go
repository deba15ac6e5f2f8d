package huffman

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/sizeaudit"
	"repro/internal/wire"
)

func init() {
	codec.Register(ccrpCodec{})
}

// Method identifies the CCRP codec in image frames.
func (img *CCRPImage) Method() codec.Method { return codec.CCRP }

// NewMachine builds a CPU executing the image. CCRP keeps the original
// addresses, so the machine is the decoded text on the normal fetch path —
// predecoded, fused and resettable like a native one; the compression
// shows only in refill traffic (RefillBytes). An undecodable line fails
// with a *LineError, and an entry point that is misaligned or outside the
// text is rejected.
func (img *CCRPImage) NewMachine() (*machine.CPU, error) {
	text, err := img.Text()
	if err != nil {
		return nil, err
	}
	if !entryInText(img.Entry, img.TextBase, len(text)) {
		return nil, fmt.Errorf("huffman: entry %#x misaligned or outside text [%#x,%#x)",
			img.Entry, img.TextBase, img.TextBase+uint32(4*len(text)))
	}
	return machine.NewForProgram(&program.Program{
		Name: img.Name, Text: text, TextBase: img.TextBase,
		Data: img.Data, DataBase: img.DataBase, Entry: int((img.Entry - img.TextBase) / 4),
	})
}

// entryInText reports whether entry addresses one of the words words of
// text at textBase. It is the one entry rule: ReadCCRPImagePayload applies
// it to what it opens, NewMachine to images built in-process.
func entryInText(entry, textBase uint32, words int) bool {
	off := int64(entry) - int64(textBase)
	return off >= 0 && off%4 == 0 && off < 4*int64(words)
}

// WriteCCRPImagePayload serializes a CCRP image body (the bytes after the
// PPCZ frame header).
func WriteCCRPImagePayload(dst io.Writer, img *CCRPImage) error {
	w := wire.NewWriter(dst)
	w.Str(img.Name)
	w.U32(uint32(img.LineSize))
	w.U32(img.TextBase)
	w.U32(uint32(img.NumWords))
	w.U32(img.Entry)
	w.Bytes(img.Code.Lens[:])
	w.U32(uint32(len(img.Lines)))
	for ln, l := range img.Lines {
		raw := uint8(0)
		if img.Raw[ln] {
			raw = 1
		}
		w.U8(raw)
		w.Blob(l)
	}
	w.Blob(img.Data)
	w.U32(img.DataBase)
	w.U32(uint32(img.OriginalBytes))
	w.U64(math.Float64bits(img.LATBytesPer))
	return w.Err()
}

// LineError reports a CCRP line that does not hold the text it covers: a
// raw line shorter than its extent, a compressed line too short to hold it
// at the one bit per byte every code takes at least, or a compressed line
// that does not decode to it (Err is the decoder's cause).
type LineError struct {
	Line   int
	Len    int   // stored bytes
	Extent int   // text bytes the line covers
	Err    error // decode failure; nil for a line too short for its extent
}

func (e *LineError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("huffman: line %d (%d bytes) does not decode to %d: %v", e.Line, e.Len, e.Extent, e.Err)
	}
	return fmt.Sprintf("huffman: line %d holds %d bytes, too few for the %d it covers", e.Line, e.Len, e.Extent)
}

func (e *LineError) Unwrap() error { return e.Err }

// ReadCCRPImagePayload deserializes a CCRP image body. It fails with a
// *wire.FormatError on a line size that is not a positive multiple of 4, a
// code-length table NewCodeFromLens refuses, an entry point that is
// misaligned or outside the text, or a line count that does not cover the
// text, and with a *LineError when a line is too short for the text it
// covers. Lines and Data are subslices of b.
func ReadCCRPImagePayload(b []byte) (*CCRPImage, error) {
	r := wire.NewReader(b)
	img := &CCRPImage{}
	img.Name = r.Str()
	img.LineSize = int(r.U32())
	if r.Err() == nil && (img.LineSize <= 0 || img.LineSize%4 != 0) {
		r.Reject("line size", int64(img.LineSize))
	}
	img.TextBase = r.U32()
	img.NumWords = int(r.U32())
	img.Entry = r.U32()
	if r.Err() == nil && !entryInText(img.Entry, img.TextBase, img.NumWords) {
		r.Reject("entry", int64(img.Entry))
	}
	var lens [256]uint8
	copy(lens[:], r.Bytes(256))
	if r.Err() == nil {
		code, err := NewCodeFromLens(lens)
		if err != nil {
			r.Reject("code length", int64(slices.Max(lens[:])))
		}
		img.Code = code
	}
	nlines := r.Count(int(r.U32()), "line")
	if want := (img.NumWords*4 + img.LineSize - 1) / max(img.LineSize, 1); r.Err() == nil && nlines != want {
		r.Reject("line count", int64(nlines))
	}
	for i := 0; i < nlines && r.Err() == nil; i++ {
		img.Raw = append(img.Raw, r.U8() != 0)
		img.Lines = append(img.Lines, r.Blob())
	}
	img.Data = r.Blob()
	img.DataBase = r.U32()
	img.OriginalBytes = int(r.U32())
	lat := r.U64()
	img.LATBytesPer = math.Float64frombits(lat)
	// A LAT entry costs at most a line; NaN fails both comparisons. The
	// rejected value is the field's bits.
	if r.Err() == nil && !(img.LATBytesPer >= 0 && img.LATBytesPer <= float64(img.LineSize)) {
		r.Reject("LAT bytes per line", int64(lat))
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	for ln, l := range img.Lines {
		if ext := img.extent(ln); img.Raw[ln] && len(l) < ext || 8*len(l) < ext {
			return nil, &LineError{Line: ln, Len: len(l), Extent: ext}
		}
	}
	return img, nil
}

// ccrpCodec adapts the CCRP model to the codec interface with the Ext. A
// configuration (DefaultCCRP).
type ccrpCodec struct{}

func (ccrpCodec) Method() codec.Method { return codec.CCRP }
func (ccrpCodec) Name() string         { return "ccrp" }

func cfgFor(opt codec.Options) CCRP {
	cfg := DefaultCCRP()
	cfg.Stats = opt.Stats
	return cfg
}

// Compress builds a CCRP image; the dictionary-shape options do not apply
// and are ignored.
func (ccrpCodec) Compress(p *program.Program, opt codec.Options) (codec.Image, error) {
	return BuildCCRPImage(p, cfgFor(opt))
}

// Open deserializes a CCRP image payload.
func (ccrpCodec) Open(payload []byte) (codec.Image, error) { return ReadCCRPImagePayload(payload) }

// WriteImage serializes a CCRP image payload.
func (ccrpCodec) WriteImage(w io.Writer, img codec.Image) error {
	ci, ok := img.(*CCRPImage)
	if !ok {
		return fmt.Errorf("huffman: %T is not a CCRP image", img)
	}
	return WriteCCRPImagePayload(w, ci)
}

// Verify decodes every stored line and compares it against the original
// text.
func (ccrpCodec) Verify(p *program.Program, img codec.Image) error {
	ci, ok := img.(*CCRPImage)
	if !ok {
		return fmt.Errorf("huffman: %T is not a CCRP image", img)
	}
	if ci.NumWords != len(p.Text) {
		return fmt.Errorf("huffman: image holds %d words, program %d", ci.NumWords, len(p.Text))
	}
	text, err := ci.Text()
	if err != nil {
		return err
	}
	for i, w := range text {
		if orig := p.Text[i]; w != orig {
			return fmt.Errorf("huffman: line %d word %d: %#x != %#x", 4*i/ci.LineSize, 4*i%ci.LineSize/4, w, orig)
		}
	}
	return nil
}

// Audit recompresses with a live provenance emitter and returns the
// conservation-checked audit.
func (ccrpCodec) Audit(p *program.Program, opt codec.Options) (*sizeaudit.Audit, error) {
	em := sizeaudit.NewProgramEmitter(p)
	cfg := cfgFor(opt)
	cfg.Audit = em
	img, err := BuildCCRPImage(p, cfg)
	if err != nil {
		return nil, err
	}
	a := em.Finish(p.Name, "ccrp", img.CompressedBytes(), p.SizeBytes())
	if err := a.Check(); err != nil {
		return nil, err
	}
	return a, nil
}

// MaxCompressedBytes: lines never expand (raw fallback), so the bound is
// the text plus the LAT and code table.
func (ccrpCodec) MaxCompressedBytes(originalBytes int) int {
	cfg := DefaultCCRP()
	lines := (originalBytes + cfg.LineSize - 1) / cfg.LineSize
	return originalBytes + int(float64(lines)*cfg.LATBytesPerLine) + 256
}
