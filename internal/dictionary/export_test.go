package dictionary

// Hooks for the external test package, which can load the synth corpus
// (core imports this package, so its internal tests cannot).

import "fmt"

// EnumCand is one enumerated candidate: its words and ascending
// occurrence starts.
type EnumCand struct {
	Words []uint32
	Pos   []int32
}

// ReferenceEnumeration returns the reference enumerator's candidates in
// serial order.
func ReferenceEnumeration(text []uint32, cfg Config) []EnumCand {
	var out []EnumCand
	for _, c := range enumerate(text, cfg) {
		pos := make([]int32, len(c.pos))
		for i, p := range c.pos {
			pos[i] = int32(p)
		}
		out = append(out, EnumCand{Words: c.words, Pos: pos})
	}
	return out
}

// IndexedEnumeration returns the index's candidates in serial order,
// after checking that its inverted occurrence index agrees with them:
// every slot occOff[p]+k-1 names the length-k candidate whose pos list
// holds p at the recorded entry, and every occurrence has one slot.
func IndexedEnumeration(text []uint32, cfg Config) ([]EnumCand, error) {
	ix := newIndex(text, cfg)
	var out []EnumCand
	occurrences := 0
	for s := range ix.cands {
		c := &ix.cands[s]
		if int(c.serial) != s || int(c.live) != len(c.pos) {
			return nil, fmt.Errorf("candidate %d: serial %d, live %d of %d", s, c.serial, c.live, len(c.pos))
		}
		occurrences += len(c.pos)
		out = append(out, EnumCand{Words: text[c.at : c.at+c.k], Pos: c.pos})
	}
	if len(ix.occ) != occurrences || int(ix.occOff[len(text)]) != occurrences {
		return nil, fmt.Errorf("%d occurrence slots, %d occurrences, occOff ends at %d", len(ix.occ), occurrences, ix.occOff[len(text)])
	}
	for p := range text {
		for o := ix.occOff[p]; o < ix.occOff[p+1]; o++ {
			r := ix.occ[o]
			c := &ix.cands[r.c]
			if c.k != o-ix.occOff[p]+1 || c.pos[r.idx] != int32(p) {
				return nil, fmt.Errorf("slot %d at start %d: candidate %d (k=%d) entry %d holds %d", o, p, r.c, c.k, r.idx, c.pos[r.idx])
			}
		}
	}
	return out, nil
}

// IndexedCandidates enumerates through the index and returns the
// candidate count.
func IndexedCandidates(text []uint32, cfg Config) int {
	return len(newIndex(text, cfg).cands)
}

// StaticReference is Build with StaticOrder through the string-keyed
// transcription: the differential oracle for the indexed static builder.
func StaticReference(text []uint32, cfg Config) *Result {
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = int(^uint(0) >> 1)
	}
	return buildStaticReference(text, cfg, maxEntries)
}
