package codeword

import (
	"fmt"
	"slices"

	"repro/internal/ppc"
)

// escapeBytes caches ppc.EscapeBytes(); escapeIndex inverts it, -1 for a
// byte that is not an escape.
var (
	escapeBytes = ppc.EscapeBytes()
	escapeIndex = func() (a [256]int16) {
		for b := range a {
			a[b] = -1
		}
		for i, b := range escapeBytes {
			a[b] = int16(i)
		}
		return
	}()
)

// Writer packs codewords and raw instructions into a unit stream; the
// nibble scheme packs two units to a byte, high nibble first.
type Writer struct {
	scheme Scheme
	bytes  []byte
	units  int
}

// NewWriter creates a stream writer for the scheme.
func NewWriter(s Scheme) *Writer { return &Writer{scheme: s} }

// Grow makes room for n more units, so a stream whose length is known
// before it is written never reallocates.
func (w *Writer) Grow(n int) {
	w.bytes = slices.Grow(w.bytes, streamBytes(w.scheme, w.units+n)-len(w.bytes))
}

// Units returns the stream length so far in scheme units.
func (w *Writer) Units() int { return w.units }

// Codeword appends the codeword for an entry rank.
func (w *Writer) Codeword(rank int) error {
	s := w.scheme
	if rank < 0 || rank >= s.MaxEntries() {
		return fmt.Errorf("codeword: rank %d out of range for %v", rank, s)
	}
	switch s {
	case Baseline:
		w.bytes = append(w.bytes, escapeBytes[rank>>8], byte(rank&0xFF))
		w.units++
	case OneByte:
		w.bytes = append(w.bytes, escapeBytes[rank])
		w.units++
	case Liao:
		// A call-dictionary instruction: illegal primary opcode 0 with the
		// entry index in the low bits.
		word := uint32(rank)
		w.bytes = append(w.bytes, byte(word>>24), byte(word>>16), byte(word>>8), byte(word))
		w.units++
	case Nibble:
		switch {
		case rank < nib4Lim:
			w.nib(byte(rank))
		case rank < nib8Lim:
			v := rank - nib4Lim
			w.nib(byte(8 + v>>4))
			w.nib(byte(v & 0xF))
		case rank < nib12Lim:
			v := rank - nib8Lim
			w.nib(byte(11 + v>>8))
			w.nib(byte(v >> 4 & 0xF))
			w.nib(byte(v & 0xF))
		default:
			v := rank - nib12Lim
			w.nib(byte(13 + v>>12))
			w.nib(byte(v >> 8 & 0xF))
			w.nib(byte(v >> 4 & 0xF))
			w.nib(byte(v & 0xF))
		}
	}
	return nil
}

// Raw appends an uncompressed instruction.
func (w *Writer) Raw(word uint32) error {
	s := w.scheme
	switch s {
	case Baseline, OneByte, Liao:
		if ppc.IsEscapeByte(byte(word >> 24)) {
			return fmt.Errorf("codeword: raw word %08x starts with an escape byte", word)
		}
		w.bytes = append(w.bytes, byte(word>>24), byte(word>>16), byte(word>>8), byte(word))
		w.units += s.RawInsnUnits()
	case Nibble:
		w.nib(nibEscape)
		for shift := 28; shift >= 0; shift -= 4 {
			w.nib(byte(word >> uint(shift) & 0xF))
		}
	}
	return nil
}

func (w *Writer) nib(v byte) {
	if w.units%2 == 0 {
		w.bytes = append(w.bytes, v<<4)
	} else {
		w.bytes[len(w.bytes)-1] |= v & 0xF
	}
	w.units++
}

// Bytes returns the packed stream, padded to a whole byte with a zero
// nibble for the nibble scheme.
func (w *Writer) Bytes() []byte { return w.bytes }

// SizeBytes is the stream size in whole bytes.
func (w *Writer) SizeBytes() int { return streamBytes(w.scheme, w.units) }

// streamBytes is the size in whole bytes of a stream of units units.
func streamBytes(s Scheme, units int) int { return (units*s.UnitBits() + 7) / 8 }

// Item is one decoded stream element.
type Item struct {
	IsCodeword bool
	Rank       int    // dictionary entry rank (codewords)
	Word       uint32 // raw instruction (non-codewords)
	Units      int    // stream units consumed
}

// Reader decodes a packed unit stream. Decoding is positional: any item
// boundary is a valid decode point, which is what lets branches target
// codewords directly.
type Reader struct {
	scheme Scheme
	stream []byte
	units  int
}

// NewReader wraps a packed stream of the given length in units.
func NewReader(s Scheme, stream []byte, units int) *Reader {
	return &Reader{scheme: s, stream: stream, units: units}
}

// Units returns the stream length in units.
func (r *Reader) Units() int { return r.units }

func (r *Reader) nibAt(u int) (byte, error) {
	if u < 0 || u >= r.units || u/2 >= len(r.stream) {
		return 0, fmt.Errorf("codeword: nibble %d outside stream of %d units (%d bytes)",
			u, r.units, len(r.stream))
	}
	b := r.stream[u/2]
	if u%2 == 0 {
		return b >> 4, nil
	}
	return b & 0xF, nil
}

func (r *Reader) byteAt(u int) (byte, error) {
	if u < 0 || u >= len(r.stream) {
		return 0, fmt.Errorf("codeword: byte %d outside stream of %d bytes", u, len(r.stream))
	}
	return r.stream[u], nil
}

// At decodes the item starting at the given unit offset.
func (r *Reader) At(unit int) (Item, error) {
	switch r.scheme {
	case Baseline:
		b0, err := r.byteAt(unit * 2)
		if err != nil {
			return Item{}, err
		}
		if idx := int(escapeIndex[b0]); idx >= 0 {
			b1, err := r.byteAt(unit*2 + 1)
			if err != nil {
				return Item{}, err
			}
			return Item{IsCodeword: true, Rank: idx<<8 | int(b1), Units: 1}, nil
		}
		w, err := r.word(unit * 2)
		if err != nil {
			return Item{}, err
		}
		return Item{Word: w, Units: 2}, nil
	case OneByte:
		b0, err := r.byteAt(unit)
		if err != nil {
			return Item{}, err
		}
		if idx := int(escapeIndex[b0]); idx >= 0 {
			return Item{IsCodeword: true, Rank: idx, Units: 1}, nil
		}
		w, err := r.word(unit)
		if err != nil {
			return Item{}, err
		}
		return Item{Word: w, Units: 4}, nil
	case Liao:
		w, err := r.word(unit * 4)
		if err != nil {
			return Item{}, err
		}
		if ppc.IsEscapeByte(byte(w >> 24)) {
			return Item{IsCodeword: true, Rank: int(w & 0xFFFF), Units: 1}, nil
		}
		return Item{Word: w, Units: 1}, nil
	case Nibble:
		n0, err := r.nibAt(unit)
		if err != nil {
			return Item{}, err
		}
		read := func(count int) (int, error) {
			v := 0
			for i := 1; i <= count; i++ {
				ni, err := r.nibAt(unit + i)
				if err != nil {
					return 0, err
				}
				v = v<<4 | int(ni)
			}
			return v, nil
		}
		switch {
		case n0 < 8:
			return Item{IsCodeword: true, Rank: int(n0), Units: 1}, nil
		case n0 <= 10:
			v, err := read(1)
			if err != nil {
				return Item{}, err
			}
			return Item{IsCodeword: true, Rank: nib4Lim + int(n0-8)<<4 + v, Units: 2}, nil
		case n0 <= 12:
			v, err := read(2)
			if err != nil {
				return Item{}, err
			}
			return Item{IsCodeword: true, Rank: nib8Lim + int(n0-11)<<8 + v, Units: 3}, nil
		case n0 <= 14:
			v, err := read(3)
			if err != nil {
				return Item{}, err
			}
			return Item{IsCodeword: true, Rank: nib12Lim + int(n0-13)<<12 + v, Units: 4}, nil
		default:
			var w uint32
			for i := 1; i <= 8; i++ {
				ni, err := r.nibAt(unit + i)
				if err != nil {
					return Item{}, err
				}
				w = w<<4 | uint32(ni)
			}
			return Item{Word: w, Units: 9}, nil
		}
	}
	return Item{}, fmt.Errorf("codeword: unknown scheme %v", r.scheme)
}

// word reads a big-endian instruction word at a byte offset.
func (r *Reader) word(off int) (uint32, error) {
	if off < 0 || off+4 > len(r.stream) {
		return 0, fmt.Errorf("codeword: word at byte %d outside stream", off)
	}
	return uint32(r.stream[off])<<24 | uint32(r.stream[off+1])<<16 |
		uint32(r.stream[off+2])<<8 | uint32(r.stream[off+3]), nil
}
