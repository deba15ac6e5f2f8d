package lzw

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/sizeaudit"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/wire"
)

func roundTrip(t *testing.T, data []byte) {
	t.Helper()
	c := Compress(data)
	d, err := Decompress(c, len(data))
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(d, data) {
		i := 0
		for i < len(d) && i < len(data) && d[i] == data[i] {
			i++
		}
		t.Fatalf("round trip failed: lengths %d vs %d, first diff at %d", len(d), len(data), i)
	}
}

func TestRoundTripBasics(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{255},
		[]byte("a"),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaa"),
		[]byte("abcabcabcabcabcabc"),
		[]byte("to be or not to be that is the question"),
		bytes.Repeat([]byte{1, 2, 3, 4}, 1000),
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestKwKwKCase(t *testing.T) {
	// The classic corner: "ababab..." forces the code-equals-table-size
	// path immediately.
	roundTrip(t, []byte("abababababababababab"))
	roundTrip(t, bytes.Repeat([]byte("ab"), 5000))
}

func TestWidthGrowth(t *testing.T) {
	// Force the table past several width bumps with low-redundancy data.
	rng := rand.New(rand.NewSource(3))
	data := make([]byte, 300_000)
	for i := range data {
		data[i] = byte(rng.Intn(256))
	}
	roundTrip(t, data)
}

func TestTableFullAndReset(t *testing.T) {
	// Data whose statistics change midway: repetitive, then random, then
	// repetitive again — exercising the adaptive clear-code path.
	rng := rand.New(rand.NewSource(4))
	var data []byte
	data = append(data, bytes.Repeat([]byte("the quick brown fox "), 20_000)...)
	noise := make([]byte, 400_000)
	for i := range noise {
		noise[i] = byte(rng.Intn(256))
	}
	data = append(data, noise...)
	data = append(data, bytes.Repeat([]byte("jumps over the lazy dog "), 20_000)...)
	roundTrip(t, data)
}

func TestCompressesRedundantData(t *testing.T) {
	data := bytes.Repeat([]byte("instruction stream "), 2000)
	if r := Ratio(data); r > 0.2 {
		t.Errorf("ratio %.3f on highly redundant data", r)
	}
	rng := rand.New(rand.NewSource(5))
	noise := make([]byte, 64_000)
	for i := range noise {
		noise[i] = byte(rng.Intn(256))
	}
	if r := Ratio(noise); r < 1.0 {
		t.Logf("ratio %.3f on noise (expected near or above 1)", r)
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	// A stream whose first code is beyond the virgin table must fail typed.
	w := &bitWriter{}
	w.write(300, 9) // code 300 > 257 with empty table
	var fe *wire.FormatError
	if _, err := Decompress(w.flush(), 1<<20); !errors.As(err, &fe) || fe.Field != "lzw code" {
		t.Fatalf("garbage stream: err = %v, want a *wire.FormatError on the code", err)
	}
}

// TestHostileStreamAllocatesLittle: a stream of KwKwK codes, each the
// decoder's next free code, decodes to the square of its length (4,000
// codes to 8 MB). Bounded by the length it should decode to, Decompress
// fails with a *wire.FormatError on the output length once it would pass
// that, having allocated less than 8 times the bound plus 64 KiB; a
// stream of clear codes allocates under 64 KiB; and a stream that ends
// within the bound still decodes.
func TestHostileStreamAllocatesLittle(t *testing.T) {
	w := &bitWriter{}
	w.write('a', minBits)
	bits := uint32(minBits)
	for next := firstCode; next < firstCode+4000; next++ {
		for next >= 1<<bits && bits < maxBits {
			bits++
		}
		w.write(uint32(next), bits)
	}
	blob := w.flush()
	const maxLen = 64 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decompress(blob, maxLen)
	runtime.ReadMemStats(&after)
	var fe *wire.FormatError
	if !errors.As(err, &fe) || fe.Field != "lzw output length" || fe.Value <= maxLen {
		t.Fatalf("%d-byte KwKwK stream: err = %v, want a *wire.FormatError on the output length", len(blob), err)
	}
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*maxLen+64<<10); grew >= limit {
		t.Errorf("decoding %d bytes allocated %d, limit %d", len(blob), grew, limit)
	}
	// A dictionary reset reuses the table: 2,000 clear codes allocate
	// next to nothing.
	w = &bitWriter{}
	for range 2000 {
		w.write(clearCode, minBits)
	}
	runtime.ReadMemStats(&before)
	out, err := Decompress(w.flush(), maxLen)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; err != nil || len(out) != 0 || grew >= 64<<10 {
		t.Errorf("2,000 clear codes: %d bytes, err %v, allocated %d", len(out), err, grew)
	}
	// The first 8 codes (9 bytes) decode to 1 + 2 + ... + 8 bytes.
	const n = 8 * 9 / 2
	if out, err := Decompress(blob[:9], n); err != nil || !bytes.Equal(out, bytes.Repeat([]byte{'a'}, n)) {
		t.Fatalf("8-code prefix: %d bytes, err %v; want %d", len(out), err, n)
	}
}

func TestRatioOnBenchmarkText(t *testing.T) {
	// Fig. 11's comparator: Unix compress on raw instruction bytes should
	// land in the same neighborhood as the paper (roughly half the size).
	p, err := synth.Generate("ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	r := Ratio(p.TextBytes())
	t.Logf("ijpeg instruction bytes: LZW ratio %.3f", r)
	if r < 0.05 || r > 0.95 {
		t.Errorf("LZW ratio %.3f implausible for instruction bytes", r)
	}
	roundTrip(t, p.TextBytes())
}

// TestRoundTripQuick: random strings over small and large alphabets.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint16, alphabet uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := int(alphabet)%255 + 1
		data := make([]byte, int(n)%5000)
		for i := range data {
			data[i] = byte(rng.Intn(a))
		}
		c := Compress(data)
		d, err := Decompress(c, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(d, data)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// compressReference is the string-keyed encoder compress replaced: the
// table maps each string's bytes to its code. It is the oracle for the
// integer-keyed table.
func compressReference(data []byte, rec *stats.Recorder, em *sizeaudit.Emitter) []byte {
	rec.Add("lzw.dict_resets", 0) // materialize: zero resets is a finding
	w := &bitWriter{}
	table := make(map[string]uint32, 1<<12)
	reset := func() uint32 {
		for k := range table {
			delete(table, k)
		}
		for i := 0; i < 256; i++ {
			table[string([]byte{byte(i)})] = uint32(i)
		}
		return firstCode
	}
	next := reset()
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
	cur := string(data[:1])
	for i := 1; i < len(data); i++ {
		c := data[i]
		// NB: string(c) would UTF-8-encode the byte; splice it verbatim.
		ext := cur + string([]byte{c})
		if _, ok := table[ext]; ok {
			cur = ext
			continue
		}
		emit(table[cur], bits, spanStart)
		if next < 1<<maxBits {
			table[ext] = next
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
				next = reset()
				bits = minBits
			}
			lastCheck = i
			lastOutLen = len(w.out)
		}
		cur = string([]byte{c})
		spanStart = i
	}
	emit(table[cur], bits, spanStart)
	out := w.flush()
	em.Global(sizeaudit.Padding, sizeaudit.PadRow, int64(len(out))*8-bitsWritten)
	rec.Add("lzw.codes", codes)
	rec.Add("lzw.literal_codes", literals)
	return out
}

// TestMatchesStringKeyedReference checks that the integer-keyed encoder
// emits the reference's bytes, overhead counters and provenance records
// on every corpus text, the degenerate inputs, and noise long enough to
// fill the 16-bit table and force adaptive resets.
func TestMatchesStringKeyedReference(t *testing.T) {
	type input struct {
		name string
		data []byte
		em   func() *sizeaudit.Emitter
	}
	rng := rand.New(rand.NewSource(6))
	noise := make([]byte, 300_000)
	for i := range noise {
		noise[i] = byte(rng.Intn(256))
	}
	inputs := []input{{name: "empty"}, {name: "one-byte", data: []byte{0x7c}}, {name: "noise", data: noise}}
	for _, name := range synth.BenchmarkNames() {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{name, p.TextBytes(), func() *sizeaudit.Emitter { return sizeaudit.NewProgramEmitter(p) }})
	}
	for _, in := range inputs {
		newEm := func() *sizeaudit.Emitter { return sizeaudit.NewEmitter(nil, uint32(len(in.data))) }
		if in.em != nil {
			newEm = in.em
		}
		rec, refRec := stats.New(), stats.New()
		em, refEm := newEm(), newEm()
		got := compress(in.data, rec, em)
		want := compressReference(in.data, refRec, refEm)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes, reference %d", in.name, len(got), len(want))
		}
		s, ref := rec.Snapshot(), refRec.Snapshot()
		for _, c := range []string{"lzw.codes", "lzw.literal_codes", "lzw.dict_resets"} {
			if s.Counter(c) != ref.Counter(c) {
				t.Errorf("%s: %s %d, reference %d", in.name, c, s.Counter(c), ref.Counter(c))
			}
		}
		if a, b := em.Finish(in.name, "lzw", len(got), len(in.data)), refEm.Finish(in.name, "lzw", len(want), len(in.data)); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: size audit differs from the reference's", in.name)
		}
		if in.name == "noise" && s.Counter("lzw.dict_resets") == 0 {
			t.Errorf("noise: no dictionary reset — the reset path went untested")
		}
		roundTrip(t, in.data)
	}
}

// FuzzLZWDifferential holds the table-shaped encoder and decoder to the
// map-keyed encoder and slice-per-code decoder they replaced. The input
// is compressed by both encoders, which must emit the same bytes, and
// that stream must decode back to the input. The input is also read as a
// hostile stream, bounded by a fuzzed output length: both decoders must
// return the same bytes, or the same typed error with the same field,
// offset and value.
func FuzzLZWDifferential(f *testing.F) {
	f.Add([]byte("abababababababababab"), uint16(64))
	f.Add([]byte("to be or not to be that is the question"), uint16(8))
	f.Add(bytes.Repeat([]byte{0x7c, 0x08, 0x02, 0xa6}, 64), uint16(0))
	f.Add([]byte{0, 1, 0, 1, 0xff, 0xff, 0x80}, uint16(1000))
	// Hostile streams: a code past the virgin table, 9-bit clear codes,
	// and a KwKwK run cut by the length bound.
	for _, codes := range [][]uint32{{300}, {clearCode, clearCode, 'a', clearCode, firstCode}, {'a', firstCode, firstCode + 1, firstCode + 2}} {
		w := &bitWriter{}
		for _, c := range codes {
			w.write(c, minBits)
		}
		f.Add(w.flush(), uint16(5))
	}
	f.Fuzz(func(t *testing.T, data []byte, maxLenRaw uint16) {
		stream := Compress(data)
		if want := compressMapReference(data, nil, nil); !bytes.Equal(stream, want) {
			t.Fatalf("%d-byte input: %d-byte stream, reference %d", len(data), len(stream), len(want))
		}
		if out, err := Decompress(stream, len(data)); err != nil || !bytes.Equal(out, data) {
			t.Fatalf("round trip: %d bytes of %d, err %v", len(out), len(data), err)
		}
		maxLen := int(maxLenRaw)
		got, err := Decompress(data, maxLen)
		want, refErr := decompressReference(data, maxLen)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("hostile stream: err %v, reference %v", err, refErr)
		}
		if err != nil {
			var fe, ref *wire.FormatError
			if !errors.As(err, &fe) || !errors.As(refErr, &ref) || *fe != *ref {
				t.Fatalf("hostile stream: err %#v, reference %#v", err, refErr)
			}
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("hostile stream: %d bytes, reference %d", len(got), len(want))
		}
	})
}

// TestDecompressAllocatesPerStream: decoding gcc's text allocates a
// handful of growing buffers, not one object per code.
func TestDecompressAllocatesPerStream(t *testing.T) {
	p, err := synth.Generate("gcc")
	if err != nil {
		t.Fatal(err)
	}
	text := p.TextBytes()
	rec := stats.New()
	stream := CompressAudited(text, rec, nil)
	codes := rec.Snapshot().Counter("lzw.codes")
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Decompress(stream, len(text)); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("gcc: %d codes, %.0f allocations per decode", codes, allocs)
	if allocs > 8 {
		t.Errorf("decoding gcc's %d codes allocated %.0f objects, want at most 8", codes, allocs)
	}
}
