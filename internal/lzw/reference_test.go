package lzw

// The encoder and decoder that compress(1)'s table shapes replaced, kept
// as differential oracles: FuzzLZWDifferential and
// TestMatchesStringKeyedReference hold the encoder to
// compressMapReference's bytes and the decoder to decompressReference's
// output and typed errors.

import (
	"repro/internal/sizeaudit"
	"repro/internal/stats"
	"repro/internal/wire"
)

// compressMapReference is the encoder whose string table was a Go map
// from prefix<<8 | byte to code.
func compressMapReference(data []byte, rec *stats.Recorder, em *sizeaudit.Emitter) []byte {
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

// referenceLiterals backs the one-byte strings every table of
// decompressReference starts with, so a dictionary reset allocates
// nothing.
var referenceLiterals = func() (b [256]byte) {
	for i := range b {
		b[i] = byte(i)
	}
	return
}()

// decompressReference is the decoder Decompress replaced: a table of one
// byte slice per code, each entry allocated as its string is learned. It
// is the oracle for Decompress's spans of the output.
func decompressReference(data []byte, maxLen int) ([]byte, error) {
	r := &bitReader{in: data}
	var out []byte

	var table [][]byte
	reset := func() {
		table = table[:0]
		for i := range referenceLiterals {
			table = append(table, referenceLiterals[i:i+1])
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
