package core

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/codec"
	"repro/internal/codeword"
	"repro/internal/dictionary"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/sizeaudit"
	"repro/internal/wire"
)

// The four dictionary schemes register themselves as codecs; their method
// bytes equal the raw codeword.Scheme values, the byte the payload itself
// stores, so a frame's method and its payload's scheme can be checked
// against each other.
func init() {
	codec.Register(schemeCodec{codeword.Baseline}, "2byte")
	codec.Register(schemeCodec{codeword.OneByte}, "1byte")
	codec.Register(schemeCodec{codeword.Nibble})
	codec.Register(schemeCodec{codeword.Liao})
}

// Method identifies the dictionary codec that produced the image.
func (img *Image) Method() codec.Method { return codec.Method(img.Scheme) }

// NewMachine builds a CPU executing the image with the default (on-chip
// dictionary) fetch path — the codec.Executable hook behind ccrun's
// any-encoding dispatch.
func (img *Image) NewMachine() (*machine.CPU, error) { return NewMachine(img) }

// WriteImagePayload serializes a dictionary image body: everything the
// PPCZ container stores after its frame header, including the
// verification marks (sideband metadata).
func WriteImagePayload(dst io.Writer, img *Image) error {
	w := wire.NewWriter(dst)
	w.Str(img.Name)
	w.U8(uint8(img.Scheme))
	w.U32(uint32(img.Units))
	w.Blob(img.Stream)
	w.U32(img.Base)
	w.U32(img.EntryUnit)
	w.U32(uint32(len(img.Entries)))
	for _, e := range img.Entries {
		w.U8(uint8(len(e.Words)))
		for _, x := range e.Words {
			w.U32(x)
		}
		w.U32(uint32(e.Uses))
	}
	w.U32(img.DataBase)
	w.Blob(img.Data)
	w.U32(uint32(len(img.JumpTableSlots)))
	for _, s := range img.JumpTableSlots {
		w.U32(uint32(s))
	}
	w.U32(uint32(len(img.Symbols)))
	for _, s := range img.Symbols {
		w.Str(s.Name)
		w.U32(uint32(s.Word))
	}
	w.U32(uint32(len(img.Marks)))
	for _, m := range img.Marks {
		w.U32(uint32(m.Unit))
		w.U32(uint32(m.Orig))
		w.U8(uint8(m.Kind))
	}
	w.U32(uint32(img.OriginalBytes))
	w.U32(uint32(img.StreamBytes))
	w.U32(uint32(img.DictionaryBytes))
	for _, v := range []int{
		img.Stats.Items, img.Stats.CodewordItems, img.Stats.RawItems,
		img.Stats.StubBranches, img.Stats.CoveredInsns,
		img.Stats.CodewordBits, img.Stats.EscapeBits, img.Stats.RawBits,
	} {
		w.U32(uint32(v))
	}
	w.U32(img.TextBase)
	w.U32(uint32(len(img.OrigSymbols)))
	for _, s := range img.OrigSymbols {
		w.Str(s.Name)
		w.U32(uint32(s.Word))
	}
	return w.Err()
}

// HeaderError reports a dictionary image header field out of range for
// its payload: a scheme byte naming no scheme (or not the frame's method),
// more stream units than the stream holds, an entry point outside the
// stream's units, or an empty dictionary entry.
type HeaderError struct {
	Field string // "scheme", "units", "entry unit", "entry length" or "mark" (a unit or word offset)
	Value int64
	Min   int64 // the smallest value the payload admits
	Limit int64 // the largest value the payload admits
}

func (e *HeaderError) Error() string {
	return fmt.Sprintf("core: image header %s %d out of range [%d, %d]", e.Field, e.Value, e.Min, e.Limit)
}

// ReadImagePayload deserializes a dictionary image body written by
// WriteImagePayload. It fails with a *HeaderError when the header's scheme,
// unit count or entry unit contradicts the payload, a dictionary entry is
// empty, or a mark's offset does not fit an int32. Stream and Data are
// subslices of b.
func ReadImagePayload(b []byte) (*Image, error) {
	r := wire.NewReader(b)
	img := &Image{}
	img.Name = r.Str()
	img.Scheme = codeword.Scheme(r.U8())
	img.Units = int(r.U32())
	img.Stream = r.Blob()
	if r.Err() == nil {
		// Checked before anything sizes a buffer from them: predecoding
		// allocates one slot per unit.
		if img.Scheme > codeword.Liao {
			r.Fail(&HeaderError{Field: "scheme", Value: int64(img.Scheme), Limit: int64(codeword.Liao)})
		} else if limit := len(img.Stream) * 8 / img.Scheme.UnitBits(); img.Units > limit {
			r.Fail(&HeaderError{Field: "units", Value: int64(img.Units), Limit: int64(limit)})
		}
	}
	img.Base = r.U32()
	img.EntryUnit = r.U32()
	if u, base := int64(img.EntryUnit), int64(img.Base); r.Err() == nil && (u < base || u >= base+int64(img.Units)) {
		r.Fail(&HeaderError{Field: "entry unit", Value: u, Min: base, Limit: base + int64(img.Units) - 1})
	}
	nent := r.Count(int(r.U32()), "entry")
	img.Entries = slices.Grow(img.Entries, r.Cap(nent, 1+4+4)) // length, one word, uses
	for i := 0; i < nent && r.Err() == nil; i++ {
		k := int(r.U8())
		if k == 0 {
			r.Fail(&HeaderError{Field: "entry length", Value: 0, Min: 1, Limit: math.MaxUint8})
			break
		}
		words := make([]uint32, k)
		for j := range words {
			words[j] = r.U32()
		}
		uses := int(r.U32())
		img.Entries = append(img.Entries, dictionary.Entry{Words: words, Uses: uses})
	}
	img.DataBase = r.U32()
	img.Data = r.Blob()
	njt := r.Count(int(r.U32()), "jump-table slot")
	img.JumpTableSlots = slices.Grow(img.JumpTableSlots, r.Cap(njt, 4))
	for i := 0; i < njt && r.Err() == nil; i++ {
		img.JumpTableSlots = append(img.JumpTableSlots, int(r.U32()))
	}
	nsym := r.Count(int(r.U32()), "symbol")
	img.Symbols = slices.Grow(img.Symbols, r.Cap(nsym, 2+4)) // empty name, word
	for i := 0; i < nsym && r.Err() == nil; i++ {
		name := r.Str()
		img.Symbols = append(img.Symbols, program.Symbol{Name: name, Word: int(r.U32())})
	}
	nmarks := r.Count(int(r.U32()), "mark")
	img.Marks = slices.Grow(img.Marks, r.Cap(nmarks, 4+4+1))
	for i := 0; i < nmarks && r.Err() == nil; i++ {
		unit, orig, kind := r.U32(), r.U32(), MarkKind(r.U8())
		if v := max(unit, orig); v > math.MaxInt32 {
			r.Fail(&HeaderError{Field: "mark", Value: int64(v), Limit: math.MaxInt32})
			break
		}
		img.Marks = append(img.Marks, Mark{Unit: int32(unit), Orig: int32(orig), Kind: kind})
	}
	img.OriginalBytes = int(r.U32())
	img.StreamBytes = int(r.U32())
	img.DictionaryBytes = int(r.U32())
	for _, dst := range []*int{
		&img.Stats.Items, &img.Stats.CodewordItems, &img.Stats.RawItems,
		&img.Stats.StubBranches, &img.Stats.CoveredInsns,
		&img.Stats.CodewordBits, &img.Stats.EscapeBits, &img.Stats.RawBits,
	} {
		*dst = int(r.U32())
	}
	img.TextBase = r.U32()
	nosym := r.Count(int(r.U32()), "original symbol")
	img.OrigSymbols = slices.Grow(img.OrigSymbols, r.Cap(nosym, 2+4))
	for i := 0; i < nosym && r.Err() == nil; i++ {
		name := r.Str()
		img.OrigSymbols = append(img.OrigSymbols, program.Symbol{Name: name, Word: int(r.U32())})
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return img, nil
}

// schemeCodec adapts one dictionary codeword scheme to the codec
// interface.
type schemeCodec struct {
	scheme codeword.Scheme
}

// Method is the frame byte — the raw scheme value, by construction.
func (c schemeCodec) Method() codec.Method { return codec.Method(c.scheme) }

// Name is the scheme's canonical name.
func (c schemeCodec) Name() string { return c.scheme.String() }

// Scheme exposes the underlying codeword scheme (codec.Schemed), the hook
// scheme-keyed layers such as the bench corpus cache use.
func (c schemeCodec) Scheme() codeword.Scheme { return c.scheme }

// options maps the generic codec options onto the dictionary pipeline's.
func (c schemeCodec) options(opt codec.Options) Options {
	return Options{
		Scheme:      c.scheme,
		MaxEntries:  opt.MaxEntries,
		MaxEntryLen: opt.MaxEntryLen,
		Strategy:    opt.Strategy,
		DynProfile:  opt.DynProfile,
		Stats:       opt.Stats,
		Trace:       opt.Trace,
	}
}

// Compress runs the full dictionary pipeline on a private clone.
func (c schemeCodec) Compress(p *program.Program, opt codec.Options) (codec.Image, error) {
	return Compress(p.Clone(), c.options(opt))
}

// Open deserializes an image payload and checks it belongs to this codec:
// a body whose scheme byte disagrees with the frame's method byte fails
// with a *HeaderError on "scheme" that admits only this codec's scheme.
func (c schemeCodec) Open(payload []byte) (codec.Image, error) {
	img, err := ReadImagePayload(payload)
	if err != nil {
		return nil, err
	}
	if img.Scheme != c.scheme {
		return nil, &HeaderError{Field: "scheme", Value: int64(img.Scheme), Min: int64(c.scheme), Limit: int64(c.scheme)}
	}
	return img, nil
}

// WriteImage serializes an image produced by this codec.
func (c schemeCodec) WriteImage(w io.Writer, img codec.Image) error {
	di, ok := img.(*Image)
	if !ok {
		return fmt.Errorf("core: %T is not a dictionary image", img)
	}
	if di.Scheme != c.scheme {
		return fmt.Errorf("core: image scheme %v does not match codec %v", di.Scheme, c.scheme)
	}
	return WriteImagePayload(w, di)
}

// Verify runs the structural verifier against the original program.
func (c schemeCodec) Verify(p *program.Program, img codec.Image) error {
	di, ok := img.(*Image)
	if !ok {
		return fmt.Errorf("core: %T is not a dictionary image", img)
	}
	return Verify(p, di)
}

// Audit reconstructs the byte-provenance audit from the image's marks —
// bit-identical to a live emitter attached during compression, without
// recompressing (the memoized-image fast path the bench tables rely on).
func (c schemeCodec) Audit(p *program.Program, opt codec.Options) (*sizeaudit.Audit, error) {
	img, err := Compress(p.Clone(), c.options(opt))
	if err != nil {
		return nil, err
	}
	return img.SizeAudit()
}

// MaxCompressedBytes: in the worst case nothing compresses, every
// instruction is emitted raw, and every one of them is a conditional far
// branch expanded to a condStubLen-instruction stub. Loose, but a true
// bound.
func (c schemeCodec) MaxCompressedBytes(originalBytes int) int {
	insns := (originalBytes + 3) / 4
	units := insns * condStubLen * c.scheme.RawInsnUnits()
	return (units*c.scheme.UnitBits()+7)/8 + codeword.DictHeaderBytes
}
