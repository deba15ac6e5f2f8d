package dictionary

// Fuzz differential: random texts, compressibility masks and leader masks
// are fed to the indexed and reference builders — greedy and static —
// which must agree exactly. The seed corpus runs on every plain `go test`.

import (
	"reflect"
	"testing"
)

// fuzzVocab is a small instruction vocabulary so short fuzz inputs still
// produce repeating sequences worth compressing.
var fuzzVocab = [8]uint32{
	0x38630001, // addi r3,r3,1
	0x80690004, // lwz r3,4(r9)
	0x90690008, // stw r3,8(r9)
	0x7c632214, // add r3,r3,r4
	0x60000000, // nop
	0x7c6802a6, // mflr r3
	0x54631838, // rlwinm r3,r3,3,...
	0x3880ffff, // li r4,-1
}

// fuzzInput derives a bounded build input from raw bytes: three bits of
// vocabulary, two bits steering compressibility (mostly on), the rest
// leaders (sparse).
func fuzzInput(data []byte) (text []uint32, comp, lead []bool) {
	n := len(data)
	if n > 512 {
		n = 512
	}
	text = make([]uint32, n)
	comp = make([]bool, n)
	lead = make([]bool, n)
	for i := 0; i < n; i++ {
		b := data[i]
		text[i] = fuzzVocab[b&7]
		comp[i] = b&0x18 != 0x18
		lead[i] = b&0xe0 == 0xe0
	}
	if n > 0 {
		lead[0] = true
	}
	return text, comp, lead
}

// steppedCost is a non-trivial, non-decreasing codeword schedule (the
// contract CodewordBits must obey).
func steppedCost(rank int) int {
	switch {
	case rank < 4:
		return 4
	case rank < 16:
		return 8
	default:
		return 16
	}
}

func mustBuild(t *testing.T, text []uint32, cfg Config) *Result {
	t.Helper()
	r, err := Build(text, cfg)
	if err != nil {
		t.Fatalf("build strategy %d: %v", cfg.Strategy, err)
	}
	return r
}

func assertSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Fatalf("%s: entries diverge", label)
	}
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("%s: items diverge", label)
	}
	if got.CoveredInsns != want.CoveredInsns {
		t.Fatalf("%s: covered %d != %d", label, got.CoveredInsns, want.CoveredInsns)
	}
}

func FuzzBuildDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0}, uint8(4))
	f.Add([]byte{1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, uint8(2))
	f.Add([]byte{7, 7, 0x9f, 7, 7, 0xe1, 7, 7, 7, 0x18, 7, 7}, uint8(8))
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 1, 4, 1, 5, 9, 2, 6}, uint8(3))
	// Enumeration edge cases: one distinct word, all-distinct words, an
	// all-incompressible text, a one-word text, and leaders on every word.
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, uint8(7))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(7))
	f.Add([]byte{0x18, 0x19, 0x1a, 0x18, 0x19, 0x1a}, uint8(3))
	f.Add([]byte{2}, uint8(7))
	f.Add([]byte{0xe1, 0xe2, 0xe1, 0xe2, 0xe1, 0xe2, 0xe1, 0xe2}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, maxLenRaw uint8) {
		text, comp, lead := fuzzInput(data)
		if len(text) == 0 {
			t.Skip()
		}
		cfg := Config{
			MaxEntries:        48,
			MaxEntryLen:       int(maxLenRaw)%8 + 1,
			CodewordBits:      steppedCost,
			EntryOverheadBits: 16,
			Compressible:      comp,
			Leader:            lead,
		}
		cfg.Strategy = GreedyReference
		want := mustBuild(t, text, cfg)
		cfg.Strategy = Greedy
		got := mustBuild(t, text, cfg)
		assertSameResult(t, "indexed vs reference", got, want)
		cfg.Strategy = StaticOrder
		assertSameResult(t, "static vs reference", mustBuild(t, text, cfg), StaticReference(text, cfg))
		cfg.Strategy = Greedy

		// The prefix invariant at a fuzzed cap: the capped build is the
		// uncapped build's first selections.
		cfg.MaxEntries = 0
		sel := mustBuild(t, text, cfg).Selection()
		cfg.MaxEntries = int(maxLenRaw)>>3 + 1
		assertSameResult(t, "prefix vs capped", sel.Prefix(text, cfg.MaxEntries), mustBuild(t, text, cfg))
	})
}
