package objfile

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/program"
	"repro/internal/synth"
)

func TestProgramRoundTrip(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	q, err := ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != p.Name || q.Entry != p.Entry || q.TextBase != p.TextBase || q.DataBase != p.DataBase {
		t.Fatal("header fields differ")
	}
	if len(q.Text) != len(p.Text) {
		t.Fatalf("text %d vs %d", len(q.Text), len(p.Text))
	}
	for i := range q.Text {
		if q.Text[i] != p.Text[i] {
			t.Fatalf("text differs at %d", i)
		}
	}
	if !bytes.Equal(q.Data, p.Data) {
		t.Fatal("data differs")
	}
	if len(q.Symbols) != len(p.Symbols) || len(q.JumpTableSlots) != len(p.JumpTableSlots) {
		t.Fatal("tables differ")
	}
	if len(q.Prologue) != len(p.Prologue) || len(q.Epilogue) != len(p.Epilogue) {
		t.Fatal("ranges differ")
	}
}

func TestImageRoundTrip(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p.Clone(), core.Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteImage(&buf, img); err != nil {
		t.Fatal(err)
	}
	q, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Name != img.Name || q.Scheme != img.Scheme || q.Units != img.Units ||
		q.Base != img.Base || q.EntryUnit != img.EntryUnit {
		t.Fatal("header fields differ")
	}
	if !bytes.Equal(q.Stream, img.Stream) || !bytes.Equal(q.Data, img.Data) {
		t.Fatal("payload differs")
	}
	if len(q.Entries) != len(img.Entries) || len(q.Marks) != len(img.Marks) {
		t.Fatal("tables differ")
	}
	if q.Stats != img.Stats {
		t.Fatalf("stats differ: %+v vs %+v", q.Stats, img.Stats)
	}
	if q.TextBase != img.TextBase || !reflect.DeepEqual(q.OrigSymbols, img.OrigSymbols) {
		t.Fatal("symbolization sideband differs")
	}
	// The round-tripped image must remain symbolizable: the guest profiler
	// depends on marks, text base and original symbols all surviving disk.
	if _, err := q.GuestSymTab(); err != nil {
		t.Fatalf("GuestSymTab after round trip: %v", err)
	}
	// The deserialized image must still verify against the original and
	// still execute equivalently.
	if err := core.Verify(p, q); err != nil {
		t.Fatalf("verify after round trip: %v", err)
	}
	if _, _, err := core.RunBoth(p, q, 100_000_000); err != nil {
		t.Fatalf("execution after round trip: %v", err)
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	q, err := synth.Generate("li")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := core.BuildSharedDictionary(
		[]*program.Program{p, q}, core.Options{Scheme: codeword.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDictionary(&buf, entries); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDictionary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("%d entries, want %d", len(got), len(entries))
	}
	for i := range got {
		if got[i].Uses != entries[i].Uses || len(got[i].Words) != len(entries[i].Words) {
			t.Fatalf("entry %d differs", i)
		}
		for j := range got[i].Words {
			if got[i].Words[j] != entries[i].Words[j] {
				t.Fatalf("entry %d word %d differs", i, j)
			}
		}
	}
	// The reloaded dictionary still compresses and verifies.
	img, err := core.CompressFixed(p.Clone(), got, core.Options{Scheme: codeword.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(p, img); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDictionary(bytes.NewReader([]byte("NOPE0000"))); err == nil {
		t.Fatal("bad dictionary magic accepted")
	}
}

// TestImageV1BackwardCompat: version-1 frames (no header, scheme byte in
// the body) must keep loading through both OpenImage and ReadImage, and
// must decode to exactly the image a current-version frame carries.
func TestImageV1BackwardCompat(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []codeword.Scheme{codeword.Baseline, codeword.OneByte, codeword.Nibble, codeword.Liao} {
		img, err := core.Compress(p.Clone(), core.Options{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		var v1, v2 bytes.Buffer
		if err := WriteImageV1(&v1, img); err != nil {
			t.Fatal(err)
		}
		if err := WriteImage(&v2, img); err != nil {
			t.Fatal(err)
		}
		// The v2 frame is the v1 file with the 3-byte header spliced in
		// after the magic; the payload bytes are identical.
		if got, want := v2.Len(), v1.Len()+3; got != want {
			t.Fatalf("%v: v2 frame is %d bytes, want v1+header %d", scheme, got, want)
		}
		if !bytes.Equal(v2.Bytes()[7:], v1.Bytes()[4:]) {
			t.Fatalf("%v: v2 payload differs from v1 body", scheme)
		}
		from1, err := OpenImage(bytes.NewReader(v1.Bytes()))
		if err != nil {
			t.Fatalf("%v: open v1: %v", scheme, err)
		}
		from2, err := OpenImage(bytes.NewReader(v2.Bytes()))
		if err != nil {
			t.Fatalf("%v: open v2: %v", scheme, err)
		}
		if !reflect.DeepEqual(from1, from2) {
			t.Fatalf("%v: v1 and v2 decode to different images", scheme)
		}
		d1, ok := from1.(*core.Image)
		if !ok {
			t.Fatalf("%v: v1 frame decoded to %T", scheme, from1)
		}
		if d1.Scheme != scheme {
			t.Fatalf("%v: v1 frame decoded scheme %v", scheme, d1.Scheme)
		}
		if err := core.Verify(p, d1); err != nil {
			t.Fatalf("%v: verify v1-loaded image: %v", scheme, err)
		}
		// The typed reader accepts both container versions.
		for i, buf := range [][]byte{v1.Bytes(), v2.Bytes()} {
			if _, err := ReadImage(bytes.NewReader(buf)); err != nil {
				t.Fatalf("%v: ReadImage v%d: %v", scheme, i+1, err)
			}
		}
	}
}

// TestNonDictionaryImageRoundTrip: codecs without a codeword scheme
// (CCRP, LZW) round-trip through the versioned frame, reopening to an
// image of the same method with an identical re-serialization.
func TestNonDictionaryImageRoundTrip(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ccrp", "lzw"} {
		cd, err := codec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		img, err := cd.Compress(p, codec.Options{})
		if err != nil {
			t.Fatalf("%s: compress: %v", name, err)
		}
		var frame bytes.Buffer
		if err := WriteImage(&frame, img); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		got, err := OpenImage(bytes.NewReader(frame.Bytes()))
		if err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		if got.Method() != cd.Method() {
			t.Fatalf("%s: reopened method %#x, want %#x", name, got.Method(), cd.Method())
		}
		var before, after bytes.Buffer
		if err := cd.WriteImage(&before, img); err != nil {
			t.Fatal(err)
		}
		if err := cd.WriteImage(&after, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			t.Fatalf("%s: payload changed across a round trip", name)
		}
		// The typed dictionary reader must refuse them with a clear error.
		if _, err := ReadImage(bytes.NewReader(frame.Bytes())); err == nil {
			t.Fatalf("%s: ReadImage accepted a non-dictionary image", name)
		}
	}
}

// TestImageFrameValidation: corrupt or unsupported frame headers are
// rejected rather than misparsed as payload.
func TestImageFrameValidation(t *testing.T) {
	frame := func(b ...byte) []byte { return append([]byte("PPCZ"), b...) }
	cases := []struct {
		name string
		data []byte
	}{
		{"unsupported version", frame(0xFF, ImageVersion+1, 0x00)},
		{"version zero", frame(0xFF, 0x00, 0x00)},
		{"unknown method", frame(0xFF, ImageVersion, 0xEE)},
		{"truncated after sentinel", frame(0xFF)},
		{"truncated after version", frame(0xFF, ImageVersion)},
	}
	for _, tc := range cases {
		if _, err := OpenImage(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestImageHeaderRejected: a dictionary image whose header claims an
// unknown scheme or more units than its stream holds fails to open with a
// *core.HeaderError — before a machine could size its predecoded slots
// from the claim — in both frame versions, and opening it allocates
// nothing near the claimed size.
func TestImageHeaderRejected(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p, core.Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 bytes.Buffer
	if err := WriteImageV1(&v1, img); err != nil {
		t.Fatal(err)
	}
	if err := WriteImage(&v2, img); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		field string
		patch []byte // written over the body from its scheme byte on
	}{
		{"units", []byte{byte(codeword.Nibble), 0x7F, 0xFF, 0xFF, 0xFF}},
		{"scheme", []byte{byte(codeword.Liao) + 1}},
	} {
		// The body follows the magic (v1) or the magic, sentinel, version
		// and method bytes (v2). It opens with the name (uint16 length +
		// bytes), then the scheme byte and the uint32 unit count.
		for _, f := range []struct {
			version int
			frame   []byte
			body    int
		}{{1, v1.Bytes(), 4}, {2, v2.Bytes(), 7}} {
			version := f.version
			bad := append([]byte(nil), f.frame...)
			copy(bad[f.body+2+len(img.Name):], tc.patch)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			opened, err := OpenImage(bytes.NewReader(bad))
			runtime.ReadMemStats(&after)
			var he *core.HeaderError
			if !errors.As(err, &he) || he.Field != tc.field {
				t.Fatalf("%s v%d: OpenImage = %T, %v; want a *core.HeaderError on %s", tc.field, version, opened, err, tc.field)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(16*len(bad)) {
				t.Errorf("%s v%d: opening a %d-byte frame allocated %d bytes", tc.field, version, len(bad), grew)
			}
		}
	}

	// A v2 frame whose method byte names another dictionary codec than
	// the body's scheme byte: the codec the method selects refuses it.
	bad := append([]byte(nil), v2.Bytes()...)
	if bad[6] != byte(codec.Nibble) {
		t.Fatalf("v2 frame byte 6 = %d, want the nibble method byte", bad[6])
	}
	bad[6] = byte(codec.OneByte)
	opened, err := OpenImage(bytes.NewReader(bad))
	var he *core.HeaderError
	if !errors.As(err, &he) || he.Field != "scheme" || he.Value != int64(codeword.Nibble) ||
		he.Min != int64(codeword.OneByte) || he.Limit != int64(codeword.OneByte) {
		t.Fatalf("method/scheme mismatch: OpenImage = %T, %v; want a *core.HeaderError on scheme admitting only onebyte", opened, err)
	}
}

// TestEmptyEntryRejected: a golden baseline frame whose first dictionary
// entry is cut to length zero fails to open with a *core.HeaderError,
// instead of opening and panicking when the codeword is expanded.
func TestEmptyEntryRejected(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p, core.Options{Scheme: codeword.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	var frame bytes.Buffer
	if err := WriteImage(&frame, img); err != nil {
		t.Fatal(err)
	}
	// Frame header (7), name (2+len), scheme (1), units (4), stream blob
	// (4+len), base (4), entry unit (4), entry count (4): then entry 0's
	// length byte and its words.
	off := 7 + 2 + len(img.Name) + 1 + 4 + 4 + len(img.Stream) + 4 + 4 + 4
	k := len(img.Entries[0].Words)
	if int(frame.Bytes()[off]) != k {
		t.Fatalf("byte %d = %d, want entry 0's length %d", off, frame.Bytes()[off], k)
	}
	bad := append([]byte(nil), frame.Bytes()[:off]...)
	bad = append(bad, 0)
	bad = append(bad, frame.Bytes()[off+1+4*k:]...)
	opened, err := OpenImage(bytes.NewReader(bad))
	var he *core.HeaderError
	if !errors.As(err, &he) || he.Field != "entry length" {
		t.Fatalf("OpenImage = %T, %v; want a *core.HeaderError on entry length", opened, err)
	}
}

// TestEmptyDictionaryEntryRejected: a hand-built .ppd frame whose second
// entry has length zero fails to load with a *core.HeaderError on the
// entry length, the same rejection the image reader applies.
func TestEmptyDictionaryEntryRejected(t *testing.T) {
	frame := []byte{'P', 'P', 'D', 'X', 0, 0, 0, 2}
	// Entry 0: one word (li r3,0), 5 uses.
	frame = append(frame, 1, 0x38, 0x60, 0x00, 0x00, 0, 0, 0, 5)
	// Entry 1: zero words, then a use count a reader must never reach.
	frame = append(frame, 0, 0, 0, 0, 7)
	entries, err := ReadDictionary(bytes.NewReader(frame))
	var he *core.HeaderError
	if !errors.As(err, &he) || he.Field != "entry length" || he.Min != 1 {
		t.Fatalf("ReadDictionary = %v, %v; want a *core.HeaderError on entry length, Min 1", entries, err)
	}
	// The same frame with entry 1 given a word loads.
	ok := append(append([]byte(nil), frame[:len(frame)-5]...), 1, 0x38, 0x60, 0x00, 0x01, 0, 0, 0, 7)
	if entries, err := ReadDictionary(bytes.NewReader(ok)); err != nil || len(entries) != 2 {
		t.Fatalf("well-formed frame: %v, %v", entries, err)
	}
}

// TestShortRawLineRejected: a golden CCRP frame whose first line is
// flagged raw while holding its shorter Huffman encoding fails to open
// with a *huffman.LineError, instead of opening and panicking when the
// line is decoded.
func TestShortRawLineRejected(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	cd, err := codec.ByName("ccrp")
	if err != nil {
		t.Fatal(err)
	}
	img, err := cd.Compress(p, codec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci := img.(*huffman.CCRPImage)
	if ci.Raw[0] || len(ci.Lines[0]) >= ci.LineSize {
		t.Fatal("line 0 is not a compressed line")
	}
	var frame bytes.Buffer
	if err := WriteImage(&frame, img); err != nil {
		t.Fatal(err)
	}
	// Frame header (7), name (2+len), line size, text base, word count and
	// entry (16), code lengths (256), line count (4): then line 0's raw flag.
	bad := append([]byte(nil), frame.Bytes()...)
	bad[7+2+len(ci.Name)+16+256+4] = 1
	opened, err := OpenImage(bytes.NewReader(bad))
	var le *huffman.LineError
	if !errors.As(err, &le) || le.Line != 0 || le.Extent != ci.LineSize {
		t.Fatalf("OpenImage = %T, %v; want a *huffman.LineError on line 0", opened, err)
	}
}

// TestCorruptCCRPLineFailsTyped: a golden CCRP frame whose first
// compressed line is overwritten with all-ones bits still opens (lines are
// decoded on use), but building its machine decodes every line and fails
// with a *huffman.LineError carrying the decoder's cause.
func TestCorruptCCRPLineFailsTyped(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	cd, err := codec.ByName("ccrp")
	if err != nil {
		t.Fatal(err)
	}
	img, err := cd.Compress(p, codec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ci := img.(*huffman.CCRPImage)
	if ci.Raw[0] {
		t.Fatal("line 0 is not a compressed line")
	}
	ones := bytes.Repeat([]byte{0xff}, len(ci.Lines[0]))
	if _, err := ci.Code.Decode(ones, ci.LineSize); err == nil {
		t.Fatal("all-ones line decodes; pick another corruption")
	}
	var frame bytes.Buffer
	if err := WriteImage(&frame, img); err != nil {
		t.Fatal(err)
	}
	// Frame header (7), name (2+len), line size, text base, word count and
	// entry (16), code lengths (256), line count (4), line 0's raw flag (1)
	// and blob length (4): then line 0's payload.
	bad := append([]byte(nil), frame.Bytes()...)
	copy(bad[7+2+len(ci.Name)+16+256+4+1+4:], ones)
	opened, err := OpenImage(bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("OpenImage: %v", err)
	}
	cpu, err := opened.(codec.Executable).NewMachine()
	var le *huffman.LineError
	if !errors.As(err, &le) || le.Line != 0 || le.Err == nil {
		t.Fatalf("NewMachine = %v, %v; want a *huffman.LineError on line 0 with a cause", cpu, err)
	}
}

// TestTruncatedFrameNeverEOF cuts every codec's frame of a small
// compress-profile program (~450 words) at each byte offset: every cut fails to open,
// and none with an error that errors.Is io.EOF — running out of input
// inside a frame is io.ErrUnexpectedEOF, so a caller can tell a short
// file from a clean end of input. (Opening every cut costs time
// quadratic in the frame, hence the small program.)
func TestTruncatedFrameNeverEOF(t *testing.T) {
	prof, err := synth.ProfileFor("compress")
	if err != nil {
		t.Fatal(err)
	}
	prof.TargetWords, prof.MegaFuncs, prof.NScalars, prof.NArrays, prof.ArrayLenPow = 50, 0, 2, 1, 2
	p, err := synth.GenerateProfile(prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, cd := range codec.Codecs() {
		img, err := cd.Compress(p, codec.Options{})
		if err != nil {
			t.Fatalf("%s: compress: %v", cd.Name(), err)
		}
		var frame bytes.Buffer
		if err := WriteImage(&frame, img); err != nil {
			t.Fatalf("%s: write: %v", cd.Name(), err)
		}
		full := frame.Bytes()
		for n := 0; n < len(full); n++ {
			_, err := OpenImage(bytes.NewReader(full[:n]))
			if err == nil {
				t.Fatalf("%s: frame cut at %d of %d bytes opened", cd.Name(), n, len(full))
			}
			if errors.Is(err, io.EOF) {
				t.Fatalf("%s: frame cut at %d of %d bytes: %v, a bare io.EOF", cd.Name(), n, len(full), err)
			}
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	if _, err := ReadProgram(bytes.NewReader([]byte("JUNKJUNKJUNK"))); err == nil {
		t.Fatal("bad program magic accepted")
	}
	if _, err := ReadImage(bytes.NewReader([]byte("JUNKJUNKJUNK"))); err == nil {
		t.Fatal("bad image magic accepted")
	}
}

func TestTruncationRejected(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{3, 10, 100, len(full) / 2, len(full) - 1} {
		if _, err := ReadProgram(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
}

func TestCorruptedProgramFailsValidation(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteProgram(&buf, p); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry point field (offset: magic 4 + str hdr 2 + name +
	// textBase 4 + dataBase 4).
	raw := buf.Bytes()
	off := 4 + 2 + len(p.Name) + 4 + 4
	raw[off] = 0xFF // entry far outside text
	if _, err := ReadProgram(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted entry accepted")
	}
}
