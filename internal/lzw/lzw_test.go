package lzw

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sizeaudit"
	"repro/internal/stats"
	"repro/internal/synth"
)

func roundTrip(t *testing.T, data []byte) {
	t.Helper()
	c := Compress(data)
	d, err := Decompress(c)
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
	// A stream whose first code is beyond the virgin table must error.
	w := &bitWriter{}
	w.write(300, 9) // code 300 > 257 with empty table
	if _, err := Decompress(w.flush()); err == nil {
		t.Fatal("garbage stream accepted")
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
		d, err := Decompress(c)
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
