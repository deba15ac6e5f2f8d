package core

import (
	"testing"

	"repro/internal/codeword"
	"repro/internal/synth"
)

func compressedImage(t *testing.T, name string) *Image {
	t.Helper()
	p, err := synth.Generate(name)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	img, err := Compress(p, Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	return img
}

func TestAddrMapRoundTrip(t *testing.T) {
	img := compressedImage(t, "compress")
	m, err := img.AddrMap()
	if err != nil {
		t.Fatalf("AddrMap: %v", err)
	}

	words := img.OriginalBytes / 4
	for w := 0; w < words; w++ {
		native := img.TextBase + 4*uint32(w)
		unit, ok := m.UnitAddr(native)
		if !ok {
			t.Fatalf("UnitAddr(%#x) not mapped", native)
		}
		if unit < img.Base || unit >= img.Base+uint32(img.Units) {
			t.Fatalf("UnitAddr(%#x) = %#x outside compressed text", native, unit)
		}
		// Mapping back lands on the covering item's first original word —
		// at or before the word we started from (floor semantics), and
		// close enough to stay in the same few-instruction item.
		back, ok := m.NativeAddr(unit)
		if !ok {
			t.Fatalf("NativeAddr(%#x) not mapped", unit)
		}
		if back > native {
			t.Errorf("NativeAddr(UnitAddr(%#x)) = %#x overshoots", native, back)
		}
		if native-back > 64 {
			t.Errorf("NativeAddr(UnitAddr(%#x)) = %#x too far back", native, back)
		}
	}
}

func TestAddrMapUnitCoverage(t *testing.T) {
	img := compressedImage(t, "li")
	m, err := img.AddrMap()
	if err != nil {
		t.Fatalf("AddrMap: %v", err)
	}
	// Every unit address inside the stream maps to some original text
	// address; stub and codeword interiors floor to their item's origin.
	for u := 0; u < img.Units; u++ {
		native, ok := m.NativeAddr(img.Base + uint32(u))
		if !ok {
			t.Fatalf("NativeAddr(base+%d) not mapped", u)
		}
		if native < img.TextBase || native >= img.TextBase+uint32(img.OriginalBytes) {
			t.Fatalf("NativeAddr(base+%d) = %#x outside original text", u, native)
		}
	}
}

func TestAddrMapBounds(t *testing.T) {
	img := compressedImage(t, "compress")
	m, err := img.AddrMap()
	if err != nil {
		t.Fatalf("AddrMap: %v", err)
	}
	if _, ok := m.NativeAddr(img.Base - 1); ok {
		t.Error("NativeAddr below base should fail")
	}
	if _, ok := m.NativeAddr(img.Base + uint32(img.Units)); ok {
		t.Error("NativeAddr at end of stream should fail")
	}
	if _, ok := m.UnitAddr(img.TextBase - 4); ok {
		t.Error("UnitAddr below text should fail")
	}
	if _, ok := m.UnitAddr(img.TextBase + uint32(img.OriginalBytes)); ok {
		t.Error("UnitAddr at end of text should fail")
	}
}

func TestAddrMapRequiresMarks(t *testing.T) {
	img := compressedImage(t, "compress")
	img.Marks = nil
	if _, err := img.AddrMap(); err == nil {
		t.Error("AddrMap on a stripped image should fail")
	}
	if _, err := img.GuestSymTab(); err == nil {
		t.Error("GuestSymTab on a stripped image should fail")
	}
}

// TestAddrMapFloorEdges drives the floor searches over a hand-built image
// whose first mark sits past the origin, exercising the edge cases a real
// compression never produces: an address before the first mark, exact item
// boundaries, and the one-past-the-end addresses on both sides.
func TestAddrMapFloorEdges(t *testing.T) {
	img := &Image{
		Name:          "synthetic",
		Base:          0x100,
		TextBase:      0x1000,
		Units:         100,
		OriginalBytes: 40, // 10 words
		Marks: []Mark{
			{Unit: 10, Orig: 2, Kind: MarkRaw},
			{Unit: 20, Orig: 5, Kind: MarkCodeword},
			{Unit: 50, Orig: 9, Kind: MarkRaw},
		},
	}
	m, err := img.AddrMap()
	if err != nil {
		t.Fatalf("AddrMap: %v", err)
	}

	nativeCases := []struct {
		unit uint32
		want uint32
		ok   bool
	}{
		{img.Base + 9, 0, false},                 // inside stream but before the first mark
		{img.Base + 10, img.TextBase + 8, true},  // exact first-item boundary
		{img.Base + 19, img.TextBase + 8, true},  // last unit of the first item
		{img.Base + 20, img.TextBase + 20, true}, // exact interior boundary
		{img.Base + 50, img.TextBase + 36, true}, // exact last-item boundary
		{img.Base + 99, img.TextBase + 36, true}, // last unit of the stream
		{img.Base + 100, 0, false},               // one past the stream
		{img.Base - 1, 0, false},                 // below base
	}
	for _, c := range nativeCases {
		got, ok := m.NativeAddr(c.unit)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("NativeAddr(%#x) = %#x,%v; want %#x,%v", c.unit, got, ok, c.want, c.ok)
		}
	}

	unitCases := []struct {
		native uint32
		want   uint32
		ok     bool
	}{
		{img.TextBase, 0, false},                 // word 0: before the first mapped word
		{img.TextBase + 4, 0, false},             // word 1: still before
		{img.TextBase + 8, img.Base + 10, true},  // word 2: exact first item
		{img.TextBase + 16, img.Base + 10, true}, // word 4: floors to the first item
		{img.TextBase + 20, img.Base + 20, true}, // word 5: exact boundary
		{img.TextBase + 36, img.Base + 50, true}, // word 9: last item
		{img.TextBase + 40, 0, false},            // one past the text
	}
	for _, c := range unitCases {
		got, ok := m.UnitAddr(c.native)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("UnitAddr(%#x) = %#x,%v; want %#x,%v", c.native, got, ok, c.want, c.ok)
		}
	}
}

// TestMarksMonotone is the property the floor searches (and the size
// audit's extent math) rely on: across every benchmark and scheme, marks
// start at the stream origin with the first original word, advance
// strictly in both unit and original space, and stay inside the stream.
func TestMarksMonotone(t *testing.T) {
	schemes := []codeword.Scheme{codeword.Baseline, codeword.OneByte, codeword.Nibble, codeword.Liao}
	for _, name := range synth.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := synth.Generate(name)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}
			for _, s := range schemes {
				img, err := Compress(p.Clone(), Options{Scheme: s, MaxEntryLen: 4})
				if err != nil {
					t.Fatalf("%v: Compress: %v", s, err)
				}
				if len(img.Marks) == 0 {
					t.Fatalf("%v: no marks", s)
				}
				if img.Marks[0].Unit != 0 || img.Marks[0].Orig != 0 {
					t.Fatalf("%v: first mark %+v not at origin", s, img.Marks[0])
				}
				for i := 1; i < len(img.Marks); i++ {
					prev, cur := img.Marks[i-1], img.Marks[i]
					if cur.Unit <= prev.Unit {
						t.Fatalf("%v: mark %d unit %d not after %d", s, i, cur.Unit, prev.Unit)
					}
					if cur.Orig <= prev.Orig {
						t.Fatalf("%v: mark %d orig %d not after %d", s, i, cur.Orig, prev.Orig)
					}
				}
				last := img.Marks[len(img.Marks)-1]
				if int(last.Unit) >= img.Units {
					t.Fatalf("%v: last mark at unit %d outside stream of %d", s, last.Unit, img.Units)
				}
				if int(last.Orig) >= img.OriginalBytes/4 {
					t.Fatalf("%v: last mark for word %d outside text of %d words", s, last.Orig, img.OriginalBytes/4)
				}
			}
		})
	}
}

func TestGuestSymTabRequiresSymbols(t *testing.T) {
	img := compressedImage(t, "compress")
	img.OrigSymbols = nil
	if _, err := img.GuestSymTab(); err == nil {
		t.Error("GuestSymTab without original symbols should fail")
	}
}
