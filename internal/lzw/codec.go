package lzw

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/codec"
	"repro/internal/program"
	"repro/internal/sizeaudit"
	"repro/internal/wire"
)

func init() {
	codec.Register(lzwCodec{}, "compress")
}

// Image is a whole-text LZW compression of a program. It is a size
// comparator, not an executable encoding: LZW's sequential decode offers
// no random access, which is exactly the paper's Figure 11 point.
type Image struct {
	Name          string
	OriginalBytes int
	Blob          []byte // the LZW stream over the program's text bytes
}

// Method identifies the LZW codec in image frames.
func (img *Image) Method() codec.Method { return codec.LZW }

// CompressedBytes is the stream length.
func (img *Image) CompressedBytes() int { return len(img.Blob) }

// Ratio is compressed/original.
func (img *Image) Ratio() float64 {
	if img.OriginalBytes == 0 {
		return 0
	}
	return float64(img.CompressedBytes()) / float64(img.OriginalBytes)
}

// WriteImagePayload serializes an LZW image body.
func WriteImagePayload(dst io.Writer, img *Image) error {
	w := wire.NewWriter(dst)
	w.Str(img.Name)
	w.U32(uint32(img.OriginalBytes))
	w.Blob(img.Blob)
	return w.Err()
}

// ReadImagePayload deserializes an LZW image body. A blob longer than
// MaxCompressedBytes of the original size fails with a *wire.FormatError.
// Blob is a subslice of b.
func ReadImagePayload(b []byte) (*Image, error) {
	r := wire.NewReader(b)
	img := &Image{}
	img.Name = r.Str()
	img.OriginalBytes = int(r.U32())
	n := int(r.U32())
	if r.Err() == nil && n > (lzwCodec{}).MaxCompressedBytes(img.OriginalBytes) {
		r.Reject("blob length", int64(n))
	}
	img.Blob = r.Bytes(n)
	if err := r.End(); err != nil {
		return nil, err
	}
	return img, nil
}

// lzwCodec adapts the compressor to the codec interface.
type lzwCodec struct{}

func (lzwCodec) Method() codec.Method { return codec.LZW }
func (lzwCodec) Name() string         { return "lzw" }

// Compress encodes the program's text bytes; the dictionary-shape options
// do not apply and are ignored.
func (lzwCodec) Compress(p *program.Program, opt codec.Options) (codec.Image, error) {
	return &Image{
		Name:          p.Name,
		OriginalBytes: p.SizeBytes(),
		Blob:          CompressAudited(p.TextBytes(), opt.Stats, nil),
	}, nil
}

// Open deserializes an LZW image payload.
func (lzwCodec) Open(payload []byte) (codec.Image, error) { return ReadImagePayload(payload) }

// WriteImage serializes an LZW image payload.
func (lzwCodec) WriteImage(w io.Writer, img codec.Image) error {
	li, ok := img.(*Image)
	if !ok {
		return fmt.Errorf("lzw: %T is not an LZW image", img)
	}
	return WriteImagePayload(w, li)
}

// Verify decompresses the stream, bounded by the program text's length,
// and compares it to that text word by word.
func (lzwCodec) Verify(p *program.Program, img codec.Image) error {
	li, ok := img.(*Image)
	if !ok {
		return fmt.Errorf("lzw: %T is not an LZW image", img)
	}
	got, err := Decompress(li.Blob, 4*len(p.Text))
	if err != nil {
		return err
	}
	if len(got) != 4*len(p.Text) {
		return fmt.Errorf("lzw: decompressed text differs from program %s", p.Name)
	}
	for i, w := range p.Text {
		if binary.BigEndian.Uint32(got[4*i:]) != w {
			return fmt.Errorf("lzw: decompressed text differs from program %s", p.Name)
		}
	}
	return nil
}

// Audit compresses with a live provenance emitter and returns the
// conservation-checked audit.
func (lzwCodec) Audit(p *program.Program, opt codec.Options) (*sizeaudit.Audit, error) {
	em := sizeaudit.NewProgramEmitter(p)
	out := CompressAudited(p.TextBytes(), opt.Stats, em)
	a := em.Finish(p.Name, "lzw", len(out), p.SizeBytes())
	if err := a.Check(); err != nil {
		return nil, err
	}
	return a, nil
}

// MaxCompressedBytes: the worst case emits one code per input byte at the
// maximum 16-bit width, plus the flush round-up.
func (lzwCodec) MaxCompressedBytes(originalBytes int) int {
	return 2*originalBytes + 2
}
