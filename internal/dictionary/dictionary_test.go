package dictionary

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/ppc"
)

// fixedCost returns a constant codeword size.
func fixedCost(bits int) func(int) int { return func(int) int { return bits } }

// open marks everything compressible with no interior leaders.
func open(n int) ([]bool, []bool) {
	comp := make([]bool, n)
	lead := make([]bool, n)
	for i := range comp {
		comp[i] = true
	}
	lead[0] = true
	return comp, lead
}

func build(t *testing.T, text []uint32, cfg Config) *Result {
	t.Helper()
	r, err := Build(text, cfg)
	if err != nil {
		t.Fatal(err)
	}
	verifyReconstruction(t, text, r)
	return r
}

// verifyReconstruction expands the item stream back through the dictionary
// and requires exact equality with the original text — the core invariant.
func verifyReconstruction(t *testing.T, text []uint32, r *Result) {
	t.Helper()
	var out []uint32
	for _, it := range r.Items {
		if it.IsCodeword {
			if it.Entry < 0 || it.Entry >= len(r.Entries) {
				t.Fatalf("item references entry %d of %d", it.Entry, len(r.Entries))
			}
			out = append(out, r.Entries[it.Entry].Words...)
			continue
		}
		out = append(out, it.Word)
	}
	if len(out) != len(text) {
		t.Fatalf("reconstruction length %d != %d", len(out), len(text))
	}
	for i := range out {
		if out[i] != text[i] {
			t.Fatalf("reconstruction differs at %d: %08x != %08x", i, out[i], text[i])
		}
	}
}

func TestSingleRepeatedInstruction(t *testing.T) {
	// 10 identical instructions, 16-bit codewords: one entry, all replaced.
	w := ppc.Addi(3, 3, 1)
	text := make([]uint32, 10)
	for i := range text {
		text[i] = w
	}
	comp, lead := open(10)
	r := build(t, text, Config{
		MaxEntryLen: 1, MaxEntries: 256,
		CodewordBits: fixedCost(16), EntryOverheadBits: 16,
		Compressible: comp, Leader: lead,
	})
	if len(r.Entries) != 1 || r.Entries[0].Uses != 10 {
		t.Fatalf("entries %+v", r.Entries)
	}
	if r.CoveredInsns != 10 {
		t.Fatalf("covered %d", r.CoveredInsns)
	}
}

// TestEntriesOwnWords checks that every builder's entries keep their words
// when the caller reuses the text afterwards.
func TestEntriesOwnWords(t *testing.T) {
	text := []uint32{ppc.Addi(3, 3, 1), ppc.Addi(4, 4, 2), ppc.Addi(3, 3, 1), ppc.Addi(4, 4, 2),
		ppc.Addi(3, 3, 1), ppc.Addi(4, 4, 2), ppc.Addi(3, 3, 1), ppc.Addi(4, 4, 2)}
	comp, lead := open(len(text))
	for _, strat := range []Strategy{Greedy, GreedyReference, StaticOrder} {
		own := append([]uint32(nil), text...)
		r := build(t, own, Config{
			MaxEntryLen: 2, CodewordBits: fixedCost(8), EntryOverheadBits: 16,
			Compressible: comp, Leader: lead, Strategy: strat,
		})
		if len(r.Entries) == 0 {
			t.Fatalf("strategy %d: no entries", strat)
		}
		want := append([]uint32(nil), r.Entries[0].Words...)
		for i := range own {
			own[i] = 0
		}
		if got := r.Entries[0].Words; !reflect.DeepEqual(got, want) {
			t.Errorf("strategy %d: entry words %x changed to %x with the text", strat, want, got)
		}
	}
}

func TestUnprofitableNotSelected(t *testing.T) {
	// Two occurrences of a single instruction with a 16-bit codeword save
	// 2×16 bits but cost 32+16 dictionary bits: a net loss — skip.
	w := ppc.Addi(3, 3, 7)
	text := []uint32{w, ppc.Nop(), w}
	comp, lead := open(3)
	r := build(t, text, Config{
		MaxEntryLen: 1, MaxEntries: 256,
		CodewordBits: fixedCost(16), EntryOverheadBits: 16,
		Compressible: comp, Leader: lead,
	})
	for _, e := range r.Entries {
		if len(e.Words) == 1 && e.Words[0] == w {
			t.Fatal("unprofitable singleton selected")
		}
	}
}

func TestSequencePreferredOverSingles(t *testing.T) {
	// A 4-instruction sequence repeated 8 times: replacing the whole
	// sequence saves more than replacing constituents.
	seq := []uint32{ppc.Lbz(9, 0, 28), ppc.Clrlwi(11, 9, 24), ppc.Addi(0, 11, 1), ppc.Cmplwi(1, 0, 8)}
	var text []uint32
	for i := 0; i < 8; i++ {
		text = append(text, seq...)
		text = append(text, ppc.Addi(4, 4, int32(i))) // spacer, unique
	}
	comp, lead := open(len(text))
	r := build(t, text, Config{
		MaxEntryLen: 4, MaxEntries: 256,
		CodewordBits: fixedCost(16), EntryOverheadBits: 16,
		Compressible: comp, Leader: lead,
	})
	if len(r.Entries) == 0 {
		t.Fatal("nothing selected")
	}
	if len(r.Entries[0].Words) != 4 || r.Entries[0].Uses != 8 {
		t.Fatalf("first entry %d words %d uses", len(r.Entries[0].Words), r.Entries[0].Uses)
	}
}

func TestLeaderBoundsSequences(t *testing.T) {
	// The same pair repeats, but a leader splits the middle occurrence: no
	// entry may span it.
	a, b := ppc.Add(3, 3, 4), ppc.Subf(5, 6, 7)
	text := []uint32{a, b, a, b, a, b}
	comp := []bool{true, true, true, true, true, true}
	lead := []bool{true, false, false, true, false, false}
	lead[4] = true // split the third pair: [a] | [b a] | [b]? keep simple: leader at 4
	r := build(t, text, Config{
		MaxEntryLen: 4, MaxEntries: 256,
		CodewordBits: fixedCost(8), EntryOverheadBits: 16,
		Compressible: comp, Leader: lead,
	})
	for _, e := range r.Entries {
		if len(e.Words) == 1 {
			continue
		}
		// Verify no replaced occurrence straddles index 3 or 4.
		for _, it := range r.Items {
			if it.IsCodeword && len(r.Entries[it.Entry].Words) > 1 {
				start := it.OrigIdx
				end := start + len(r.Entries[it.Entry].Words)
				for _, ldr := range []int{3, 4} {
					if start < ldr && end > ldr {
						t.Fatalf("entry spans leader at %d (start %d end %d)", ldr, start, end)
					}
				}
			}
		}
	}
}

func TestIncompressibleExcluded(t *testing.T) {
	w := ppc.Addi(3, 3, 1)
	br := ppc.Beq(0, 8)
	text := []uint32{w, br, w, br, w, br}
	comp := []bool{true, false, true, false, true, false}
	lead := []bool{true, false, true, false, true, false}
	r := build(t, text, Config{
		MaxEntryLen: 4, MaxEntries: 256,
		CodewordBits: fixedCost(8), EntryOverheadBits: 16,
		Compressible: comp, Leader: lead,
	})
	for _, it := range r.Items {
		if !it.IsCodeword && it.Word == br {
			continue
		}
	}
	for _, e := range r.Entries {
		for _, ew := range e.Words {
			if ew == br {
				t.Fatal("incompressible word entered the dictionary")
			}
		}
	}
	// The three w's should still compress (8-bit codeword: 3×24 − 48 > 0).
	if len(r.Entries) != 1 || r.Entries[0].Uses != 3 {
		t.Fatalf("entries: %+v", r.Entries)
	}
}

func TestMaxEntriesRespected(t *testing.T) {
	// Many distinct repeated words; entry budget of 4.
	var text []uint32
	for v := int32(0); v < 20; v++ {
		w := ppc.Addi(3, 3, v)
		for j := 0; j < 5; j++ {
			text = append(text, w)
		}
	}
	comp, lead := open(len(text))
	r := build(t, text, Config{
		MaxEntryLen: 1, MaxEntries: 4,
		CodewordBits: fixedCost(8), EntryOverheadBits: 16,
		Compressible: comp, Leader: lead,
	})
	if len(r.Entries) != 4 {
		t.Fatalf("%d entries, budget 4", len(r.Entries))
	}
}

func TestRankDependentCosts(t *testing.T) {
	// Nibble-style schedule: first entries get 4-bit codewords. The most
	// frequent candidate must land at rank 0.
	hot := ppc.Lwz(9, 4, 28)
	cold := ppc.Stw(18, 0, 28)
	var text []uint32
	for i := 0; i < 50; i++ {
		text = append(text, hot)
	}
	for i := 0; i < 10; i++ {
		text = append(text, cold)
	}
	comp, lead := open(len(text))
	sched := func(rank int) int {
		if rank < 8 {
			return 4
		}
		return 16
	}
	r := build(t, text, Config{
		MaxEntryLen: 1, MaxEntries: 8760,
		CodewordBits: sched, EntryOverheadBits: 16,
		Compressible: comp, Leader: lead,
	})
	if len(r.Entries) < 2 {
		t.Fatalf("entries %d", len(r.Entries))
	}
	if r.Entries[0].Words[0] != hot || r.Entries[0].Uses != 50 {
		t.Fatalf("rank 0 is %08x uses %d", r.Entries[0].Words[0], r.Entries[0].Uses)
	}
}

func TestOverlapWithinCandidate(t *testing.T) {
	// aaaa: the pair "aa" occurs at 0,1,2 but only two disjoint
	// replacements exist.
	a := ppc.Add(3, 3, 3)
	text := []uint32{a, a, a, a}
	comp, lead := open(4)
	r := build(t, text, Config{
		MaxEntryLen: 2, MaxEntries: 16,
		CodewordBits: fixedCost(8), EntryOverheadBits: 16,
		Compressible: comp, Leader: lead,
	})
	// Whatever was selected, reconstruction already checked. Confirm no
	// entry claims more uses than physically possible.
	for _, e := range r.Entries {
		if len(e.Words)*e.Uses > 4 {
			t.Fatalf("entry claims %d×%d words from a 4-word program", e.Uses, len(e.Words))
		}
	}
}

func TestConfigValidation(t *testing.T) {
	text := []uint32{ppc.Nop()}
	comp, lead := open(1)
	if _, err := Build(text, Config{MaxEntryLen: 0, CodewordBits: fixedCost(8), Compressible: comp, Leader: lead}); err == nil {
		t.Error("MaxEntryLen 0 accepted")
	}
	if _, err := Build(text, Config{MaxEntryLen: 1, Compressible: comp, Leader: lead}); err == nil {
		t.Error("nil CodewordBits accepted")
	}
	if _, err := Build(text, Config{MaxEntryLen: 1, CodewordBits: fixedCost(8), Compressible: comp[:0], Leader: lead}); err == nil {
		t.Error("mismatched markers accepted")
	}
	if _, err := Build(text, Config{MaxEntryLen: 1, CodewordBits: fixedCost(8), Compressible: comp, Leader: lead, Strategy: Strategy(99)}); err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestApplyFixedDictionary(t *testing.T) {
	a, b, x := ppc.Add(3, 3, 4), ppc.Subf(5, 6, 7), ppc.Nop()
	entries := []Entry{
		{Words: []uint32{a, b}}, // longer entry, should win at matches
		{Words: []uint32{a}},
		{Words: []uint32{x}}, // never present: zero uses, retained
	}
	text := []uint32{a, b, a, ppc.Mr(9, 3), a, b}
	comp, lead := open(len(text))
	r, err := Apply(text, entries, Config{Compressible: comp, Leader: lead})
	if err != nil {
		t.Fatal(err)
	}
	verifyReconstruction(t, text, r)
	if r.Entries[0].Uses != 2 {
		t.Errorf("pair entry used %d times, want 2", r.Entries[0].Uses)
	}
	if r.Entries[1].Uses != 1 {
		t.Errorf("single entry used %d times, want 1", r.Entries[1].Uses)
	}
	if r.Entries[2].Uses != 0 {
		t.Errorf("absent entry used %d times", r.Entries[2].Uses)
	}
	if len(r.Entries) != 3 {
		t.Errorf("entries dropped: %d", len(r.Entries))
	}
}

func TestApplyRespectsMarkers(t *testing.T) {
	a, b := ppc.Add(3, 3, 4), ppc.Subf(5, 6, 7)
	entries := []Entry{{Words: []uint32{a, b}}}
	text := []uint32{a, b, a, b}
	comp := []bool{true, true, true, true}
	lead := []bool{true, false, false, true} // leader splits the second pair
	r, err := Apply(text, entries, Config{Compressible: comp, Leader: lead})
	if err != nil {
		t.Fatal(err)
	}
	verifyReconstruction(t, text, r)
	if r.Entries[0].Uses != 1 {
		t.Errorf("entry used %d times across a leader, want 1", r.Entries[0].Uses)
	}
	// Incompressible first word blocks a match entirely.
	comp[0] = false
	lead = []bool{true, false, false, false}
	r, err = Apply(text, entries, Config{Compressible: comp, Leader: lead})
	if err != nil {
		t.Fatal(err)
	}
	verifyReconstruction(t, text, r)
	if r.Entries[0].Uses != 1 {
		t.Errorf("entry used %d times, want 1 (second pair only)", r.Entries[0].Uses)
	}
}

func TestApplyErrors(t *testing.T) {
	text := []uint32{ppc.Nop()}
	comp, lead := open(1)
	if _, err := Apply(text, []Entry{{}}, Config{Compressible: comp, Leader: lead}); err == nil {
		t.Error("empty entry accepted")
	}
	if _, err := Apply(text, nil, Config{Compressible: comp[:0], Leader: lead}); err == nil {
		t.Error("mismatched markers accepted")
	}
}

// TestReconstructionQuick is the property test: for random programs with
// random compressibility and leader patterns, expansion through the
// dictionary always reproduces the original text exactly — under every
// selection strategy.
func TestReconstructionQuick(t *testing.T) {
	words := []uint32{
		ppc.Addi(3, 3, 1), ppc.Lwz(9, 4, 28), ppc.Stw(18, 0, 28),
		ppc.Add(3, 3, 4), ppc.Nop(), ppc.Blr(), ppc.Mr(31, 3),
	}
	strategies := []Strategy{Greedy, StaticOrder, GreedyReference}
	f := func(seed int64, nRaw uint8, maxLenRaw uint8, stratRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw)%200 + 1
		maxLen := int(maxLenRaw)%8 + 1
		text := make([]uint32, n)
		comp := make([]bool, n)
		lead := make([]bool, n)
		for i := range text {
			text[i] = words[rng.Intn(len(words))]
			comp[i] = rng.Intn(10) != 0
			lead[i] = rng.Intn(8) == 0
		}
		lead[0] = true
		r, err := Build(text, Config{
			MaxEntryLen: maxLen, MaxEntries: 64,
			CodewordBits: fixedCost(8), EntryOverheadBits: 16,
			Compressible: comp, Leader: lead,
			Strategy: strategies[int(stratRaw)%len(strategies)],
		})
		if err != nil {
			return false
		}
		var out []uint32
		for _, it := range r.Items {
			if it.IsCodeword {
				out = append(out, r.Entries[it.Entry].Words...)
			} else {
				out = append(out, it.Word)
			}
		}
		if len(out) != len(text) {
			return false
		}
		for i := range out {
			if out[i] != text[i] {
				return false
			}
		}
		// Incompressible words must never be inside entries.
		for _, it := range r.Items {
			if it.IsCodeword {
				k := len(r.Entries[it.Entry].Words)
				for j := it.OrigIdx; j < it.OrigIdx+k; j++ {
					if !comp[j] {
						return false
					}
					if j > it.OrigIdx && lead[j] {
						return false
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestValHeapOrder: the packed heap pops savings descending with serials
// ascending on ties, interleaving pushes as the greedy loop's re-queues
// do, and its keys round-trip.
func TestValHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	type entry struct {
		val    int
		serial int32
	}
	var h valHeap
	seen := map[int32]bool{}
	for len(h) < 2000 {
		e := entry{1 + rng.Intn(50), int32(rng.Intn(1 << 20))}
		if seen[e.serial] {
			continue
		}
		seen[e.serial] = true
		key := heapKey(e.val, e.serial)
		if keyVal(key) != e.val || keySerial(key) != e.serial {
			t.Fatalf("key of %+v unpacks to (%d, %d)", e, keyVal(key), keySerial(key))
		}
		h = append(h, key)
	}
	h.init()
	var got []entry
	for len(h) > 0 {
		key := h.pop()
		e := entry{keyVal(key), keySerial(key)}
		if e.val > 1 && rng.Intn(3) == 0 {
			e.val -= 1 + rng.Intn(e.val-1) // a stale value re-queued lower
			h.push(heapKey(e.val, e.serial))
			continue
		}
		if n := len(got); n > 0 && (got[n-1].val < e.val || got[n-1].val == e.val && got[n-1].serial > e.serial) {
			t.Fatalf("popped %+v after %+v", e, got[n-1])
		}
		got = append(got, e)
	}
	if len(got) != len(seen) {
		t.Fatalf("popped %d keys, pushed %d", len(got), len(seen))
	}
}
