// Package lzw implements the Unix compress(1) algorithm family: LZW with
// variable code width growing from 9 to 16 bits and a dictionary reset
// when compression degrades. It is the adaptive-dictionary comparator of
// the paper's Figure 11 ("we extracted the instruction bytes from the
// benchmarks and compressed them with Unix Compress").
//
// The implementation is self-contained (no compress/lzw dependency) so the
// reproduction owns its baseline end to end.
package lzw

import (
	"errors"
	"math"
	"math/bits"

	"repro/internal/sizeaudit"
	"repro/internal/stats"
	"repro/internal/wire"
)

const (
	minBits   = 9
	maxBits   = 16
	clearCode = 256 // emitted to reset the dictionary
	firstCode = 257
)

// bitWriter packs variable-width codes LSB-first (as compress does).
type bitWriter struct {
	out  []byte
	acc  uint32
	nacc uint
}

func (w *bitWriter) write(code, bits uint32) {
	w.acc |= code << w.nacc
	w.nacc += uint(bits)
	for w.nacc >= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

func (w *bitWriter) flush() []byte {
	if w.nacc > 0 {
		w.out = append(w.out, byte(w.acc))
		w.acc, w.nacc = 0, 0
	}
	return w.out
}

// bitReader unpacks variable-width codes LSB-first.
type bitReader struct {
	in   []byte
	pos  int
	acc  uint32
	nacc uint
}

func (r *bitReader) read(bits uint) (uint32, error) {
	for r.nacc < bits {
		if r.pos >= len(r.in) {
			return 0, errors.New("lzw: truncated stream")
		}
		r.acc |= uint32(r.in[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
	v := r.acc & (1<<bits - 1)
	r.acc >>= bits
	r.nacc -= bits
	return v, nil
}

// Compress encodes data with LZW, growing code widths 9..16 bits and
// emitting a clear code whenever the table fills and the recent
// compression ratio worsens.
func Compress(data []byte) []byte {
	return compress(data, nil, nil)
}

// CompressAudited is Compress with observability attached: rec receives
// the overhead counters (lzw.dict_resets, lzw.codes, lzw.literal_codes)
// and em one provenance record per emitted code — string-table codes as
// Codeword bits at the span's first input byte, single-byte literals as
// Raw, clear codes as Dict, and the final flush round-up as Padding. Both
// may be nil (each layer is nil-safe), and the output is byte-identical
// to Compress.
func CompressAudited(data []byte, rec *stats.Recorder, em *sizeaudit.Emitter) []byte {
	return compress(data, rec, em)
}

func compress(data []byte, rec *stats.Recorder, em *sizeaudit.Emitter) []byte {
	rec.Add("lzw.dict_resets", 0) // materialize: zero resets is a finding
	w := &bitWriter{}
	if len(data) == 0 {
		return w.flush()
	}
	table := newStringTable(len(data))
	next := uint32(firstCode)
	bits := uint32(minBits)

	// checkGap controls how often the adaptive reset is considered.
	const checkGap = 4096
	lastCheck := 0
	lastOutLen := 0

	// spanStart is the input offset of cur's first byte: each emitted code
	// covers data[spanStart:i], so its bits are attributed there.
	var bitsWritten, codes, literals int64
	emit := func(code, width uint32, spanStart int) {
		w.write(code, width)
		bitsWritten += int64(width)
		codes++
		cls := sizeaudit.Codeword
		if code < clearCode {
			cls = sizeaudit.Raw
			literals++
		}
		em.At(cls, uint32(spanStart), int64(width))
	}

	spanStart := 0
	cur := uint32(data[0])
	for i := 1; i < len(data); i++ {
		c := data[i]
		key := cur<<8 | uint32(c)
		s := table.find(key)
		if table.slots[s].key != 0 {
			cur = table.slots[s].code
			continue
		}
		emit(cur, bits, spanStart)
		if next < 1<<maxBits {
			table.slots[s] = stringSlot{key: key + 1, code: next}
			next++
			if next == 1<<bits+1 && bits < maxBits {
				bits++
			}
		} else if i-lastCheck > checkGap {
			// Table full: reset when output is growing faster than input
			// consumed since the last check (compression degrading).
			outGrew := len(w.out) - lastOutLen
			if outGrew > (i-lastCheck)*9/10 {
				w.write(clearCode, bits)
				bitsWritten += int64(bits)
				em.Global(sizeaudit.Dict, sizeaudit.ResetRow, int64(bits))
				rec.Add("lzw.dict_resets", 1)
				clear(table.slots)
				next = firstCode
				bits = minBits
			}
			lastCheck = i
			lastOutLen = len(w.out)
		}
		cur = uint32(c)
		spanStart = i
	}
	emit(cur, bits, spanStart)
	out := w.flush()
	em.Global(sizeaudit.Padding, sizeaudit.PadRow, int64(len(out))*8-bitsWritten)
	rec.Add("lzw.codes", codes)
	rec.Add("lzw.literal_codes", literals)
	return out
}

// stringTable is the encoder's string table in compress(1)'s shape (its
// htab and codetab): an open-addressed hash keyed as compress keys a
// string, by its prefix's code and its last byte, prefix<<8 | byte.
// Single bytes are their own codes and need no slot. A table holds at
// most one entry per input byte and never more than 1<<maxBits, so twice
// the smaller of the two, capped at 1<<17 slots, keeps it at most half
// full.
type stringTable struct {
	slots []stringSlot
	shift uint
}

// stringSlot holds one string: its key plus one (0 marks an empty slot)
// and its code.
type stringSlot struct{ key, code uint32 }

func newStringTable(inputLen int) *stringTable {
	size := min(1<<bits.Len(uint(2*min(inputLen, 1<<maxBits))), 1<<(maxBits+1))
	return &stringTable{slots: make([]stringSlot, size), shift: uint(32 - bits.Len(uint(size-1)))}
}

// find returns the slot holding key, or the empty slot where it belongs.
func (t *stringTable) find(key uint32) int {
	mask := uint32(len(t.slots) - 1)
	s := key * 0x9E3779B1 >> t.shift
	for t.slots[s].key != 0 && t.slots[s].key != key+1 {
		s = (s + 1) & mask
	}
	return int(s)
}

// Decompress inverts Compress for a stream expected to decode to at most
// maxLen bytes. A code the table does not hold, or output that would pass
// maxLen, fails with a *wire.FormatError before it is decoded, so a
// hostile stream costs memory in proportion to maxLen, not to the square
// of its own length.
//
// Each table entry is held as a span of the output itself: an entry is
// always the previous code's string plus the first byte of the string
// decoded next, and those bytes sit next to each other in the output, so
// decoding a code copies bytes and allocates nothing. The span table is
// sized once, to the codes the stream's length can hold, and a reset
// keeps its memory.
func Decompress(data []byte, maxLen int) ([]byte, error) {
	maxLen = min(maxLen, math.MaxInt32) // spans are 32-bit
	r := &bitReader{in: data}
	out := make([]byte, 0, min(maxLen, 4*len(data)))
	// Codes firstCode, firstCode+1, ...: at most one per code read, and
	// never more than the widest code can name.
	table := make([]span, 0, min(len(data)*8/minBits, 1<<maxBits-firstCode))
	bits := uint(minBits)

	var prev span // the previous code's string; n == 0 after a reset
	for {
		size := firstCode + len(table)
		// The encoder widens codes after inserting entry 1<<bits; the
		// decoder's table runs one entry behind, so it must widen when its
		// table reaches 1<<bits, before reading the next code.
		for size >= 1<<bits && bits < maxBits {
			bits++
		}
		code, err := r.read(bits)
		if err != nil {
			// Natural end of stream.
			return out, nil
		}
		if code == clearCode {
			table = table[:0]
			bits = minBits
			prev = span{}
			continue
		}
		// The code's string is n bytes: a literal, or a copy of the n bytes
		// at from. In the KwKwK case it is prev plus prev's first byte,
		// which the copy writes before it reads it as its last byte.
		from, n := int32(0), int32(1)
		switch {
		case code < clearCode:
		case int(code) < size:
			from, n = table[code-firstCode].start, table[code-firstCode].n
		case int(code) > size || prev.n == 0:
			return nil, &wire.FormatError{Field: "lzw code", Offset: r.pos, Value: int64(code)}
		default:
			from, n = prev.start, prev.n+1
		}
		if len(out)+int(n) > maxLen {
			return nil, &wire.FormatError{Field: "lzw output length", Offset: r.pos, Value: int64(len(out)) + int64(n)}
		}
		cur := span{start: int32(len(out)), n: n}
		if code < clearCode {
			out = append(out, byte(code))
		} else {
			out = append(out, out[from:from+n-1]...)
			out = append(out, out[from+n-1])
		}
		if prev.n != 0 && size < 1<<maxBits {
			table = append(table, span{start: prev.start, n: prev.n + 1})
		}
		prev = cur
	}
}

// span is a string of the decoder's output: n bytes from start.
type span struct{ start, n int32 }

// Ratio is the compressed/original size ratio for data.
func Ratio(data []byte) float64 { return RatioRecorded(data, nil) }

// RatioRecorded is Ratio with the overhead counters published into rec.
func RatioRecorded(data []byte, rec *stats.Recorder) float64 {
	if len(data) == 0 {
		return 1
	}
	return float64(len(compress(data, rec, nil))) / float64(len(data))
}
