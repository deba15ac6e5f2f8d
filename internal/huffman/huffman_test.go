package huffman

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/wire"
)

func freqOf(data []byte) *[256]int64 {
	var f [256]int64
	for _, b := range data {
		f[b]++
	}
	return &f
}

func TestBuildEmptyErrors(t *testing.T) {
	var f [256]int64
	if _, err := Build(&f); err == nil {
		t.Fatal("empty frequency table accepted")
	}
}

func TestSingleSymbol(t *testing.T) {
	data := bytes.Repeat([]byte{42}, 100)
	c, err := Build(freqOf(data))
	if err != nil {
		t.Fatal(err)
	}
	if c.Lens[42] != 1 {
		t.Fatalf("single symbol got %d-bit code", c.Lens[42])
	}
	enc := c.Encode(data)
	if len(enc) != 13 { // 100 bits -> 13 bytes
		t.Fatalf("encoded %d bytes", len(enc))
	}
	dec, err := c.Decode(enc, 100)
	if err != nil || !bytes.Equal(dec, data) {
		t.Fatalf("round trip: %v", err)
	}
}

func TestKraftInequality(t *testing.T) {
	// Canonical code lengths must satisfy Kraft with equality for a full
	// tree (>= 2 symbols).
	data := []byte("abracadabra alakazam")
	c, err := Build(freqOf(data))
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, l := range c.Lens {
		if l > 0 {
			sum += 1 / float64(uint64(1)<<l)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("Kraft sum %f", sum)
	}
}

func TestPrefixFree(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog 0123456789")
	c, err := Build(freqOf(data))
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 256; a++ {
		if c.Lens[a] == 0 {
			continue
		}
		for b := 0; b < 256; b++ {
			if a == b || c.Lens[b] == 0 || c.Lens[a] > c.Lens[b] {
				continue
			}
			// code a must not prefix code b.
			if c.Codes[b]>>(c.Lens[b]-c.Lens[a]) == c.Codes[a] {
				t.Fatalf("code of %d prefixes code of %d", a, b)
			}
		}
	}
}

func TestOptimalityAgainstSkew(t *testing.T) {
	// A strongly skewed distribution must give the hot symbol the
	// shortest code.
	var f [256]int64
	f['x'] = 1000
	f['y'] = 10
	f['z'] = 10
	f['w'] = 1
	c, err := Build(&f)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lens['x'] != 1 {
		t.Fatalf("hot symbol has %d-bit code", c.Lens['x'])
	}
	if c.Lens['w'] < c.Lens['y'] {
		t.Fatal("rare symbol shorter than common one")
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint16, alpha uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := int(alpha)%255 + 1
		data := make([]byte, int(n)%4000+1)
		for i := range data {
			data[i] = byte(rng.Intn(a))
		}
		c, err := Build(freqOf(data))
		if err != nil {
			return false
		}
		enc := c.Encode(data)
		if len(enc)*8 < c.EncodedBits(data) {
			return false
		}
		dec, err := c.Decode(enc, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(dec, data)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var f [256]int64
	f['a'], f['b'], f['c'] = 5, 3, 1
	c, err := Build(&f)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode([]byte{}, 3); err == nil {
		t.Fatal("empty stream decoded 3 symbols")
	}
}

// TestDecodeAllocatesOnlyOutput: the decode table is built once, with the
// code, so decoding one 32-byte line allocates just its output slice.
func TestDecodeAllocatesOnlyOutput(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	text := p.TextBytes()
	c, err := Build(freqOf(text))
	if err != nil {
		t.Fatal(err)
	}
	line := text[:32]
	enc := c.Encode(line)
	allocs := testing.AllocsPerRun(100, func() {
		dec, err := c.Decode(enc, len(line))
		if err != nil || !bytes.Equal(dec, line) {
			t.Fatalf("round trip: %v", err)
		}
	})
	if allocs != 1 {
		t.Fatalf("Decode of one line allocated %v times, want 1", allocs)
	}
}

func TestCCRPOnBenchmark(t *testing.T) {
	p, err := synth.Generate("li")
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.New()
	img, err := BuildCCRPImage(p, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	text := p.SizeBytes()
	if len(img.Lines) != (text+31)/32 {
		t.Fatalf("lines %d for %d bytes", len(img.Lines), text)
	}
	if img.Ratio() <= 0 || img.Ratio() >= 1.1 {
		t.Fatalf("CCRP ratio %.3f implausible", img.Ratio())
	}
	snap := rec.Snapshot()
	lat := snap.Counter("ccrp.lat_bytes")
	if lat == 0 || snap.Counter("ccrp.code_table_bytes") == 0 {
		t.Fatal("overheads not accounted")
	}
	t.Logf("li: CCRP ratio %.3f (LAT %.3f of original)", img.Ratio(), float64(lat)/float64(text))
	if err := (ccrpCodec{}).Verify(p, img); err != nil {
		t.Fatalf("per-line verify: %v", err)
	}
}

func TestCCRPLineNeverExpands(t *testing.T) {
	// Adversarial text: uniform bytes compress poorly; lines must be
	// stored raw rather than expanded.
	rng := rand.New(rand.NewSource(9))
	p := &program.Program{Name: "noise", Text: make([]uint32, 1024), TextBase: program.DefaultTextBase}
	for i := range p.Text {
		p.Text[i] = rng.Uint32()
	}
	img, err := BuildCCRPImage(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	stored, raw := 0, 0
	for ln, l := range img.Lines {
		if len(l) > img.extent(ln) {
			t.Fatalf("line %d expanded: %d > %d bytes", ln, len(l), img.extent(ln))
		}
		stored += len(l)
		if img.Raw[ln] {
			raw++
		}
	}
	if stored > p.SizeBytes() || raw == 0 {
		t.Fatalf("lines hold %d bytes of %d, %d stored raw", stored, p.SizeBytes(), raw)
	}
	if err := (ccrpCodec{}).Verify(p, img); err != nil {
		t.Fatalf("per-line verify: %v", err)
	}
}

// TestCCRPBadConfig checks the configuration an image stores: builds
// always use LineSize and LATBytesPerLine, but a payload read from a file
// may carry any line size, and one that is not a positive multiple of 4
// fails with a *wire.FormatError.
func TestCCRPBadConfig(t *testing.T) {
	p := &program.Program{Text: []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9}}
	img, err := BuildCCRPImage(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if img.LineSize != LineSize || img.LATBytesPer != LATBytesPerLine {
		t.Fatalf("built line size %d, LAT %v bytes per line", img.LineSize, img.LATBytesPer)
	}
	for _, size := range []int{0, 30} {
		bad := *img
		bad.LineSize = size
		var buf bytes.Buffer
		if err := WriteCCRPImagePayload(&buf, &bad); err != nil {
			t.Fatal(err)
		}
		var fe *wire.FormatError
		if _, err := ReadCCRPImagePayload(buf.Bytes()); !errors.As(err, &fe) || fe.Field != "line size" {
			t.Errorf("line size %d: got %v, want a line size *wire.FormatError", size, err)
		}
	}
}
