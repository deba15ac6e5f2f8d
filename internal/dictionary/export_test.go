package dictionary

// Hooks for the external test package, which can load the synth corpus
// (core imports this package, so its internal tests cannot).

import (
	"fmt"
	"reflect"
)

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
// after checking that each occurs at least twice and that its inverted
// occurrence index agrees with them: the candidates' occurrence lists are
// consecutive runs of one array, every slot occOff[p]+k-1 names the
// length-k candidate and an entry of that candidate's run holding p, and
// every occurrence has exactly one slot.
func IndexedEnumeration(text []uint32, cfg Config) ([]EnumCand, error) {
	ix := newIndex(text, cfg)
	var out []EnumCand
	start := int32(0)
	for s := range ix.cands {
		c := &ix.cands[s]
		if c.from != start || c.end < c.from || c.live != c.end-c.from {
			return nil, fmt.Errorf("candidate %d: occurrences [%d, %d) after %d, live %d", s, c.from, c.end, start, c.live)
		}
		if c.end-c.from < 2 {
			return nil, fmt.Errorf("candidate %d has %d occurrences", s, c.end-c.from)
		}
		at := ix.pos[c.from]
		out = append(out, EnumCand{Words: text[at : at+c.k], Pos: ix.pos[c.from:c.end]})
		start = c.end
	}
	occurrences := int(start)
	if len(ix.occ) != occurrences || len(ix.pos) != occurrences || int(ix.occOff[len(text)]) != occurrences {
		return nil, fmt.Errorf("%d occurrence slots, %d occurrences of %d, occOff ends at %d", len(ix.occ), occurrences, len(ix.pos), ix.occOff[len(text)])
	}
	slotOf := make([]int32, occurrences)
	for p := range text {
		for o := ix.occOff[p]; o < ix.occOff[p+1]; o++ {
			r := ix.occ[o]
			c := &ix.cands[r.c]
			if c.k != o-ix.occOff[p]+1 || r.idx < c.from || r.idx >= c.end || ix.pos[r.idx] != int32(p) {
				return nil, fmt.Errorf("slot %d at start %d: candidate %d (k=%d, occurrences [%d, %d)) entry %d", o, p, r.c, c.k, c.from, c.end, r.idx)
			}
			if slotOf[r.idx] != 0 {
				return nil, fmt.Errorf("slots %d and %d both name entry %d", slotOf[r.idx]-1, o, r.idx)
			}
			slotOf[r.idx] = o + 1
		}
	}
	return out, nil
}

// CheckEnumeration checks the index's enumeration against the
// reference's and returns the index's candidate count. The index holds
// exactly the reference candidates that occur at least twice, in the same
// serial order with the same occurrence positions; every reference
// candidate it leaves out occurs exactly once.
func CheckEnumeration(text []uint32, cfg Config) (int, error) {
	got, err := IndexedEnumeration(text, cfg)
	if err != nil {
		return 0, err
	}
	i := 0
	for s, w := range ReferenceEnumeration(text, cfg) {
		if i < len(got) && reflect.DeepEqual(got[i], w) {
			i++
			continue
		}
		if len(w.Pos) != 1 {
			return 0, fmt.Errorf("reference serial %d (%x at %d starts) is missing from the index", s, w.Words, len(w.Pos))
		}
	}
	if i < len(got) {
		return 0, fmt.Errorf("index candidate %d (%x at %d starts) is not a reference candidate in serial order", i, got[i].Words, len(got[i].Pos))
	}
	return len(got), nil
}

// CheckedBuild is Build with the Greedy strategy, checking after every
// selection that the occurrence index still encodes coverage exactly: a
// slot is marked dead exactly when its pos entry is tombstoned, every
// candidate's live count is its number of untombstoned entries (0 for the
// candidate just selected), and an occurrence is dead exactly when it
// overlaps a covered word. Only cover changes slots, pos entries and live
// counts, and only for occurrences overlapping the words it covers, so
// each selection is checked where it covered words: every slot whose
// occurrence could overlap them, and every candidate those slots name.
// The whole index is checked after selections 1, 2, 4, 8, … and after the
// last.
func CheckedBuild(text []uint32, cfg Config) (*Result, error) {
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = int(^uint(0) >> 1)
	}
	if !indexable(len(text), cfg) {
		return nil, fmt.Errorf("text of %d words is not indexable", len(text))
	}
	var (
		err error
		chk *indexCheck
	)
	res := buildIndexed(text, cfg, maxEntries, func(ix *index, serial int32, rank int) {
		if err != nil {
			return
		}
		if chk == nil {
			chk = newIndexCheck(ix)
		}
		if live := ix.cands[serial].live; live != 0 {
			err = fmt.Errorf("after selection %d: selected candidate %d keeps %d live occurrences", rank+1, serial, live)
			return
		}
		if n := rank + 1; n&(n-1) == 0 {
			err = chk.all()
		} else {
			err = chk.selection(serial, rank)
		}
		if err != nil {
			err = fmt.Errorf("after selection %d: %w", rank+1, err)
		}
	})
	if err == nil && chk != nil {
		err = chk.all()
	}
	return res, err
}

// indexCheck verifies the invariants CheckedBuild names.
type indexCheck struct {
	ix      *index
	startOf []int32 // pos entry → the text position it was filled with
	runOf   []int32 // candidate → its first pos entry
	touched map[int32]bool
}

// newIndexCheck recovers the fill of every pos entry from the slots,
// which name their entry whether dead or alive.
func newIndexCheck(ix *index) *indexCheck {
	chk := &indexCheck{ix: ix, startOf: make([]int32, len(ix.pos)), runOf: make([]int32, len(ix.cands)), touched: map[int32]bool{}}
	for p := range ix.text {
		for o := ix.occOff[p]; o < ix.occOff[p+1]; o++ {
			idx := ix.occ[o].idx
			if idx < 0 {
				idx = ^idx
			}
			chk.startOf[idx] = int32(p)
		}
	}
	for s := 1; s < len(ix.cands); s++ {
		chk.runOf[s] = ix.cands[s-1].end
	}
	return chk
}

// all checks every slot and every candidate.
func (chk *indexCheck) all() error {
	for p := range chk.ix.text {
		if err := chk.slots(p); err != nil {
			return err
		}
	}
	for s := range chk.ix.cands {
		if err := chk.live(int32(s)); err != nil {
			return err
		}
	}
	return nil
}

// selection checks the slots that could overlap the words the selection
// of candidate serial at rank covered, and the candidates they name.
func (chk *indexCheck) selection(serial int32, rank int) error {
	ix := chk.ix
	c := &ix.cands[serial]
	clear(chk.touched)
	for i := chk.runOf[serial]; i < c.end; i++ {
		p := int(chk.startOf[i])
		if int(ix.coverEntry[p]) != rank {
			continue
		}
		for j := max(p-ix.maxLen+1, 0); j < p+int(c.k); j++ {
			if err := chk.slots(j); err != nil {
				return err
			}
		}
	}
	for s := range chk.touched {
		if err := chk.live(s); err != nil {
			return err
		}
	}
	return nil
}

// slots checks the slots of the occurrences starting at p and notes the
// candidates they name.
func (chk *indexCheck) slots(p int) error {
	ix := chk.ix
	for o := ix.occOff[p]; o < ix.occOff[p+1]; o++ {
		r := ix.occ[o]
		chk.touched[r.c] = true
		c := &ix.cands[r.c]
		idx, dead := r.idx, r.idx < 0
		if dead {
			idx = ^idx
		}
		if idx < chk.runOf[r.c] || idx >= c.end {
			return fmt.Errorf("slot %d at %d names entry %d, outside candidate %d", o, p, idx, r.c)
		}
		if dead != (ix.pos[idx] < 0) {
			return fmt.Errorf("slot %d at %d: dead %v, but pos entry %d holds %d", o, p, dead, idx, ix.pos[idx])
		}
		if !dead && ix.pos[idx] != int32(p) {
			return fmt.Errorf("slot %d at %d: pos entry %d holds %d", o, p, idx, ix.pos[idx])
		}
		overlaps := false
		for w := p; w < p+int(c.k); w++ {
			overlaps = overlaps || ix.covered[w]
		}
		if overlaps != dead {
			return fmt.Errorf("occurrence of candidate %d at %d: dead %v, overlaps covered words %v", r.c, p, dead, overlaps)
		}
	}
	return nil
}

// live checks candidate s's live count against its pos entries.
func (chk *indexCheck) live(s int32) error {
	c := &chk.ix.cands[s]
	n := int32(0)
	for _, p := range chk.ix.pos[chk.runOf[s]:c.end] {
		if p >= 0 {
			n++
		}
	}
	if n != c.live {
		return fmt.Errorf("candidate %d: live %d, but %d untombstoned entries", s, c.live, n)
	}
	return nil
}

// IndexedCandidates enumerates through the index and returns the
// candidate count: the sequences that occur at least twice.
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

// ApplyReference exposes applyReference to the external test package.
var ApplyReference = applyReference

// applyReference is the map-based transcription Apply replaced: entries
// indexed by first word in a Go map, each list insertion-sorted longest
// first. It is the differential oracle for Apply's first-word index.
func applyReference(text []uint32, entries []Entry, cfg Config) (*Result, error) {
	n := len(text)
	if len(cfg.Compressible) != n || len(cfg.Leader) != n {
		return nil, fmt.Errorf("dictionary: marker slices must match text length %d", n)
	}

	// Index entries by first word, longest first.
	type cand struct {
		idx int
		len int
	}
	byFirst := make(map[uint32][]cand)
	for i, e := range entries {
		if len(e.Words) == 0 {
			return nil, fmt.Errorf("dictionary: entry %d is empty", i)
		}
		byFirst[e.Words[0]] = append(byFirst[e.Words[0]], cand{idx: i, len: len(e.Words)})
	}
	for _, cs := range byFirst {
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && cs[j].len > cs[j-1].len; j-- {
				cs[j], cs[j-1] = cs[j-1], cs[j]
			}
		}
	}

	res := &Result{Entries: make([]Entry, len(entries))}
	for i, e := range entries {
		res.Entries[i] = Entry{Words: e.Words}
	}

	matches := func(pos int, e Entry) bool {
		if pos+len(e.Words) > n {
			return false
		}
		for j, w := range e.Words {
			if text[pos+j] != w || !cfg.Compressible[pos+j] {
				return false
			}
			if j > 0 && cfg.Leader[pos+j] {
				return false
			}
		}
		return true
	}

	for pos := 0; pos < n; {
		replaced := false
		if cfg.Compressible[pos] {
			for _, c := range byFirst[text[pos]] {
				if matches(pos, entries[c.idx]) {
					res.Items = append(res.Items, Item{OrigIdx: int32(pos), Entry: int32(c.idx)})
					res.Entries[c.idx].Uses++
					res.CoveredInsns += c.len
					pos += c.len
					replaced = true
					break
				}
			}
		}
		if !replaced {
			res.Items = append(res.Items, Item{OrigIdx: int32(pos), Entry: -1})
			pos++
		}
	}
	return res, nil
}
