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
	// The string table, keyed as compress(1) keys it: a string is its
	// prefix's code and its last byte, prefix<<8 | byte. Single bytes are
	// their own codes and need no entry.
	table := make(map[uint32]uint32, 1<<12)
	next := uint32(firstCode)
	bits := uint32(minBits)

	if len(data) == 0 {
		return w.flush()
	}
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
		if code, ok := table[key]; ok {
			cur = code
			continue
		}
		emit(cur, bits, spanStart)
		if next < 1<<maxBits {
			table[key] = next
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
				clear(table)
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

// literals backs the one-byte strings every table starts with, so a
// dictionary reset allocates nothing.
var literals = func() (b [256]byte) {
	for i := range b {
		b[i] = byte(i)
	}
	return
}()

// Decompress inverts Compress for a stream expected to decode to at most
// maxLen bytes. A code the table does not hold, or output that would pass
// maxLen, fails with a *wire.FormatError before it is decoded, so a
// hostile stream costs memory in proportion to maxLen, not to the square
// of its own length.
func Decompress(data []byte, maxLen int) ([]byte, error) {
	r := &bitReader{in: data}
	var out []byte

	var table [][]byte
	reset := func() {
		table = table[:0]
		for i := range literals {
			table = append(table, literals[i:i+1])
		}
		table = append(table, nil) // clear code placeholder
	}
	reset()
	bits := uint(minBits)

	var prev []byte
	for {
		// The encoder widens codes after inserting entry 1<<bits; the
		// decoder's table runs one entry behind, so it must widen when its
		// table reaches 1<<bits, before reading the next code.
		for len(table) >= 1<<bits && bits < maxBits {
			bits++
		}
		code, err := r.read(bits)
		if err != nil {
			// Natural end of stream.
			return out, nil
		}
		if code == clearCode {
			reset()
			bits = minBits
			prev = nil
			continue
		}
		n := len(prev) + 1 // the KwKwK case's string: prev plus its first byte
		switch {
		case int(code) < len(table):
			n = len(table[code])
		case int(code) > len(table) || prev == nil:
			return nil, &wire.FormatError{Field: "lzw code", Offset: r.pos, Value: int64(code)}
		}
		if len(out)+n > maxLen {
			return nil, &wire.FormatError{Field: "lzw output length", Offset: r.pos, Value: int64(len(out) + n)}
		}
		var cur []byte
		if int(code) < len(table) {
			cur = table[code]
		} else {
			cur = append(append(make([]byte, 0, n), prev...), prev[0])
		}
		out = append(out, cur...)
		if prev != nil && len(table) < 1<<maxBits {
			entry := append(append(make([]byte, 0, len(prev)+1), prev...), cur[0])
			table = append(table, entry)
		}
		prev = cur
	}
}

// Ratio is the compressed/original size ratio for data.
func Ratio(data []byte) float64 { return RatioRecorded(data, nil) }

// RatioRecorded is Ratio with the overhead counters published into rec.
func RatioRecorded(data []byte, rec *stats.Recorder) float64 {
	if len(data) == 0 {
		return 1
	}
	return float64(len(compress(data, rec, nil))) / float64(len(data))
}
