package huffman

import (
	"fmt"
	"io"
	"math"

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
	off := img.Entry - img.TextBase
	if off%4 != 0 || off >= uint32(4*len(text)) {
		return nil, fmt.Errorf("huffman: entry %#x misaligned or outside text [%#x,%#x)",
			img.Entry, img.TextBase, img.TextBase+uint32(4*len(text)))
	}
	return machine.NewForProgram(&program.Program{
		Name: img.Name, Text: text, TextBase: img.TextBase,
		Data: img.Data, DataBase: img.DataBase, Entry: int(off / 4),
	})
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
// raw line shorter than its extent, or a compressed line that does not
// decode to it (Err is the decoder's cause).
type LineError struct {
	Line   int
	Len    int   // stored bytes
	Extent int   // text bytes the line covers
	Err    error // decode failure; nil for a short raw line
}

func (e *LineError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("huffman: line %d (%d bytes) does not decode to %d: %v", e.Line, e.Len, e.Extent, e.Err)
	}
	return fmt.Sprintf("huffman: raw line %d holds %d bytes, covers %d", e.Line, e.Len, e.Extent)
}

func (e *LineError) Unwrap() error { return e.Err }

// ReadCCRPImagePayload deserializes a CCRP image body. It fails with a
// *LineError when a raw line is shorter than the text it covers.
func ReadCCRPImagePayload(src io.Reader) (*CCRPImage, error) {
	r := wire.NewReader(src)
	img := &CCRPImage{}
	img.Name = r.Str()
	img.LineSize = int(r.U32())
	img.TextBase = r.U32()
	img.NumWords = int(r.U32())
	img.Entry = r.U32()
	var lens [256]uint8
	copy(lens[:], r.Bytes(256))
	nlines := r.Count(int(r.U32()), "line")
	for i := 0; i < nlines && r.Err() == nil; i++ {
		img.Raw = append(img.Raw, r.U8() != 0)
		img.Lines = append(img.Lines, r.Blob())
	}
	img.Data = r.Blob()
	img.DataBase = r.U32()
	img.OriginalBytes = int(r.U32())
	img.LATBytesPer = math.Float64frombits(r.U64())
	if err := r.Err(); err != nil {
		return nil, err
	}
	if img.LineSize <= 0 || img.LineSize%4 != 0 {
		return nil, fmt.Errorf("huffman: bad line size %d in image", img.LineSize)
	}
	if want := (img.NumWords*4 + img.LineSize - 1) / img.LineSize; len(img.Lines) != want {
		return nil, fmt.Errorf("huffman: image holds %d lines for %d words, want %d", len(img.Lines), img.NumWords, want)
	}
	for ln, l := range img.Lines {
		if ext := img.extent(ln); img.Raw[ln] && len(l) < ext {
			return nil, &LineError{Line: ln, Len: len(l), Extent: ext}
		}
	}
	code, err := NewCodeFromLens(lens)
	if err != nil {
		return nil, err
	}
	img.Code = code
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
func (ccrpCodec) Open(r io.Reader) (codec.Image, error) { return ReadCCRPImagePayload(r) }

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
