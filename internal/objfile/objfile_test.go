package objfile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/codec"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/program"
	"repro/internal/synth"
	"repro/internal/wire"
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
// rejected rather than misparsed as payload: a wrong sentinel, version or
// method byte and bytes after the payload with a *wire.FormatError, a
// frame cut inside its header with io.ErrUnexpectedEOF.
func TestImageFrameValidation(t *testing.T) {
	frame := func(b ...byte) []byte { return append([]byte("PPCZ"), b...) }
	// An empty LZW payload: no name, no original bytes, an empty blob.
	lzw := frame(0xFF, ImageVersion, byte(codec.LZW), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)
	if _, err := OpenImage(bytes.NewReader(lzw)); err != nil {
		t.Fatalf("empty LZW frame: %v", err)
	}
	cases := []struct {
		name  string
		data  []byte
		field string // the *wire.FormatError's field; "" for io.ErrUnexpectedEOF
	}{
		{"no sentinel", frame(0x00, 0x04, 'm', 'a', 'i', 'n'), "version"},
		{"unsupported version", frame(0xFF, ImageVersion+1, 0x00), "version"},
		{"version zero", frame(0xFF, 0x00, 0x00), "version"},
		{"unknown method", frame(0xFF, ImageVersion, 0xEE), "method"},
		{"trailing bytes", append(lzw, 0), "trailing bytes"},
		{"truncated after magic", frame(), ""},
		{"truncated after sentinel", frame(0xFF), ""},
		{"truncated after version", frame(0xFF, ImageVersion), ""},
	}
	for _, tc := range cases {
		_, err := OpenImage(bytes.NewReader(tc.data))
		var fe *wire.FormatError
		switch {
		case tc.field == "" && err != io.ErrUnexpectedEOF:
			t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF", tc.name, err)
		case tc.field != "" && (!errors.As(err, &fe) || fe.Field != tc.field):
			t.Errorf("%s: err = %v, want a *wire.FormatError on %s", tc.name, err, tc.field)
		}
	}
}

// TestImageHeaderRejected: a frame whose header contradicts its payload
// fails to open before anything is sized from the claim, and opening it
// allocates nothing near the claimed size. A dictionary image claiming an
// unknown scheme, more units than its stream holds or an entry point past
// its last unit fails with a *core.HeaderError; an LZW image whose blob is
// longer than MaxCompressedBytes of its original size fails with a
// *wire.FormatError. So does a dictionary image whose size-audit mark lies
// beyond any int32 offset, and one whose method byte contradicts its
// scheme.
func TestImageHeaderRejected(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p, core.Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := WriteImage(&v2, img); err != nil {
		t.Fatal(err)
	}
	lz, err := codec.ByName("lzw")
	if err != nil {
		t.Fatal(err)
	}
	limg, err := lz.Compress(p, codec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var lf bytes.Buffer
	if err := WriteImage(&lf, limg); err != nil {
		t.Fatal(err)
	}
	cc, err := codec.ByName("ccrp")
	if err != nil {
		t.Fatal(err)
	}
	cimg, err := cc.Compress(p, codec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cf bytes.Buffer
	if err := WriteImage(&cf, cimg); err != nil {
		t.Fatal(err)
	}
	patch := func(frame []byte, at int, b ...byte) []byte {
		bad := append([]byte(nil), frame...)
		copy(bad[at:], b)
		return bad
	}
	// The CCRP payload ends with the float64 LAT bytes per line.
	lat := func(f float64) []byte {
		return patch(cf.Bytes(), cf.Len()-8, binary.BigEndian.AppendUint64(nil, math.Float64bits(f))...)
	}
	// After the 7-byte frame header, the dictionary payload opens with the
	// name (uint16 length + bytes), the scheme byte, the uint32 unit count,
	// the stream blob, the base and the entry unit; the LZW payload with
	// the name and the uint32 original size.
	scheme := 7 + 2 + len(img.Name)
	entryUnit := scheme + 1 + 4 + 4 + len(img.Stream) + 4
	pastEnd := img.Base + uint32(img.Units)
	for _, tc := range []struct {
		field  string
		bad    []byte
		header bool // a *core.HeaderError, else a *wire.FormatError
	}{
		{"units", patch(v2.Bytes(), scheme, byte(codeword.Nibble), 0x7F, 0xFF, 0xFF, 0xFF), true},
		{"scheme", patch(v2.Bytes(), scheme, byte(codeword.Liao)+1), true},
		{"entry unit", patch(v2.Bytes(), entryUnit, binary.BigEndian.AppendUint32(nil, pastEnd)...), true},
		{"blob length", patch(lf.Bytes(), 7+2+len(p.Name), 0, 0, 0, 0), false},
		{"LAT bytes per line", lat(math.NaN()), false},
		{"LAT bytes per line", lat(math.Inf(1)), false},
		{"LAT bytes per line", lat(-1), false},
		{"LAT bytes per line", lat(33), false}, // above the 32-byte line
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		opened, err := OpenImage(bytes.NewReader(tc.bad))
		runtime.ReadMemStats(&after)
		var he *core.HeaderError
		var fe *wire.FormatError
		if tc.header && (!errors.As(err, &he) || he.Field != tc.field) ||
			!tc.header && (!errors.As(err, &fe) || fe.Field != tc.field) {
			t.Fatalf("%s: OpenImage = %T, %v; want a typed error on %s", tc.field, opened, err, tc.field)
		}
		if tc.field == "entry unit" && (he.Value != int64(pastEnd) || he.Min != int64(img.Base) || he.Limit != int64(pastEnd)-1) {
			t.Errorf("entry unit: %v, want value %d outside [%d, %d]", he, pastEnd, img.Base, pastEnd-1)
		}
		// The blob length is rejected at the cursor just past it, counted
		// from the start of the file.
		if at := 7 + 2 + len(p.Name) + 4 + 4; tc.field == "blob length" && fe.Offset != at {
			t.Errorf("blob length: rejected at offset %d, want %d", fe.Offset, at)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(16*len(tc.bad)) {
			t.Errorf("%s: opening a %d-byte frame allocated %d bytes", tc.field, len(tc.bad), grew)
		}
	}

	// A mark at a unit offset no int32 holds.
	marks := img.Marks
	img.Marks = append([]core.Mark{{Unit: -1}}, marks...)
	var mv bytes.Buffer
	err = WriteImage(&mv, img)
	img.Marks = marks
	if err != nil {
		t.Fatal(err)
	}
	opened, err := OpenImage(bytes.NewReader(mv.Bytes()))
	var he *core.HeaderError
	if !errors.As(err, &he) || he.Field != "mark" || he.Value != math.MaxUint32 || he.Limit != math.MaxInt32 {
		t.Fatalf("mark out of range: OpenImage = %T, %v; want a *core.HeaderError on mark", opened, err)
	}

	// A frame whose method byte names another dictionary codec than the
	// body's scheme byte: the codec the method selects refuses it.
	bad := append([]byte(nil), v2.Bytes()...)
	if bad[6] != byte(codec.Nibble) {
		t.Fatalf("frame byte 6 = %d, want the nibble method byte", bad[6])
	}
	bad[6] = byte(codec.OneByte)
	opened, err = OpenImage(bytes.NewReader(bad))
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
	var fe *wire.FormatError
	if _, err := ReadProgram(bytes.NewReader([]byte("JUNKJUNKJUNK"))); !errors.As(err, &fe) || fe.Field != "magic" {
		t.Fatalf("bad program magic: %v, want a *wire.FormatError on magic", err)
	}
	if _, err := ReadImage(bytes.NewReader([]byte("JUNKJUNKJUNK"))); !errors.As(err, &fe) || fe.Field != "magic" {
		t.Fatalf("bad image magic: %v, want a *wire.FormatError on magic", err)
	}
}

// TestHostileLengthsAllocateLittle: a length that runs past the end of a
// tiny file fails before anything is sized from it. A 17-byte LZW frame
// claiming a MaxCount-byte blob, a 22-byte program claiming MaxCount text
// words and an 8-byte dictionary claiming 1<<24 entries each fail with
// io.ErrUnexpectedEOF or a *wire.FormatError, and allocate less than 16
// times their size plus 4 KiB.
func TestHostileLengthsAllocateLittle(t *testing.T) {
	huge := binary.BigEndian.AppendUint32(nil, wire.MaxCount)
	// Header, an empty name, then the original size and the blob length.
	lzw := append(append([]byte{'P', 'P', 'C', 'Z', 0xFF, ImageVersion, byte(codec.LZW), 0, 0}, huge...), huge...)
	// Magic, an empty name, text base, data base and entry, then the text
	// word count.
	prog := append(append([]byte("PPX1"), make([]byte, 2+12)...), huge...)
	dict := binary.BigEndian.AppendUint32([]byte("PPDX"), 1<<24)
	for _, tc := range []struct {
		name string
		data []byte
		size int
		read func(io.Reader) error
	}{
		{"lzw", lzw, 17, func(r io.Reader) error { _, err := OpenImage(r); return err }},
		{"program", prog, 22, func(r io.Reader) error { _, err := ReadProgram(r); return err }},
		{"dictionary", dict, 8, func(r io.Reader) error { _, err := ReadDictionary(r); return err }},
	} {
		if len(tc.data) != tc.size {
			t.Fatalf("%s: %d bytes, want %d", tc.name, len(tc.data), tc.size)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.read(bytes.NewReader(tc.data))
		runtime.ReadMemStats(&after)
		var fe *wire.FormatError
		if err != io.ErrUnexpectedEOF && !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want io.ErrUnexpectedEOF or a *wire.FormatError", tc.name, err)
		}
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*len(tc.data)+4096); grew >= limit {
			t.Errorf("%s: reading %d bytes allocated %d, limit %d", tc.name, len(tc.data), grew, limit)
		}
	}
}

// TestOversizedFileRefused checks both sides of the wire.MaxCount file
// limit: a reader refuses a longer file, and a writer refuses to write one.
// Neither touches the 64 MiB buffer, so it costs address space, not memory.
func TestOversizedFileRefused(t *testing.T) {
	big := make([]byte, wire.MaxCount+1)
	var fe *wire.FormatError
	if _, err := OpenImage(bytes.NewReader(big)); !errors.As(err, &fe) || fe.Field != "file length" {
		t.Errorf("reading %d bytes: err = %v, want a *wire.FormatError on file length", len(big), err)
	}
	// The data blob alone fills the limit, so its length prefix and the
	// fields before it take the file past it.
	p := &program.Program{Name: "big", Data: big[:wire.MaxCount]}
	if err := WriteProgram(io.Discard, p); !errors.As(err, &fe) || fe.Field != "file length" {
		t.Errorf("writing a %d-byte data blob: err = %v, want a *wire.FormatError on file length", len(p.Data), err)
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
