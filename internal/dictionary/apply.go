package dictionary

import (
	"fmt"
	"math/bits"
	"slices"
)

// Apply rewrites text against a fixed, pre-built dictionary instead of
// constructing one: at each position the longest matching entry is
// replaced, subject to the same compressibility and basic-block rules as
// Build, with ties going to the lower entry index. This is the deployment
// mode where a dictionary lives in ROM and is shared by several programs
// (or by future versions of one program).
//
// The result's Entries are the input entries in the same order — ranks
// must stay stable across every program sharing the dictionary — with
// Uses recounted for this text (possibly zero).
func Apply(text []uint32, entries []Entry, cfg Config) (*Result, error) {
	n := len(text)
	if len(cfg.Compressible) != n || len(cfg.Leader) != n {
		return nil, fmt.Errorf("dictionary: marker slices must match text length %d", n)
	}
	for i, e := range entries {
		if len(e.Words) == 0 {
			return nil, fmt.Errorf("dictionary: entry %d is empty", i)
		}
	}
	ix := newFirstWordIndex(entries)

	res := &Result{Entries: make([]Entry, len(entries)), Items: make([]Item, 0, n)}
	for i, e := range entries {
		res.Entries[i] = Entry{Words: e.Words}
	}

	matches := func(pos int, words []uint32) bool {
		if pos+len(words) > n {
			return false
		}
		for j, w := range words {
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
			for _, idx := range ix.run(text[pos]) {
				words := entries[idx].Words
				if matches(pos, words) {
					res.Items = append(res.Items, Item{OrigIdx: int32(pos), Entry: idx})
					res.Entries[idx].Uses++
					res.CoveredInsns += len(words)
					pos += len(words)
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

// firstWordIndex groups a dictionary's entry indices by first word: each
// distinct first word owns one run of order, longest entry first and, at
// equal length, lower index first, and an open-addressed table keyed by
// the first word finds the run.
type firstWordIndex struct {
	order []int32  // entry indices, grouped into runs
	runAt []int32  // per run: its start in order; one more closes the last
	keys  []uint32 // per table slot: the first word held there
	slot  []int32  // per table slot: its run + 1, 0 when empty
	shift uint
}

// newFirstWordIndex indexes non-empty entries. Its table has a power of
// two slots, at least twice the entries, so a probe stays short.
func newFirstWordIndex(entries []Entry) *firstWordIndex {
	size := 1 << bits.Len(uint(2*len(entries)))
	ix := &firstWordIndex{
		order: make([]int32, len(entries)),
		runAt: make([]int32, len(entries)+1),
		keys:  make([]uint32, size),
		slot:  make([]int32, size),
		shift: uint(64 - bits.Len(uint(size-1))),
	}
	// Count each first word's entries, numbering runs in order of first
	// appearance; runAt[r+1] holds run r's count until the prefix sum.
	runOf := make([]int32, len(entries))
	runs := int32(0)
	for i, e := range entries {
		s := ix.find(e.Words[0])
		if ix.slot[s] == 0 {
			ix.keys[s] = e.Words[0]
			runs++
			ix.slot[s] = runs
		}
		runOf[i] = ix.slot[s] - 1
		ix.runAt[runOf[i]+1]++
	}
	ix.runAt = ix.runAt[:runs+1]
	for r := int32(1); r <= runs; r++ {
		ix.runAt[r] += ix.runAt[r-1]
	}
	// Fill the runs in index order, then sort each longest first; the sort
	// is stable, so equal lengths keep ascending indices.
	next := slices.Clone(ix.runAt[:runs])
	for i, r := range runOf {
		ix.order[next[r]] = int32(i)
		next[r]++
	}
	longerFirst := func(a, b int32) int { return len(entries[b].Words) - len(entries[a].Words) }
	for r := int32(0); r < runs; r++ {
		if run := ix.order[ix.runAt[r]:ix.runAt[r+1]]; len(run) > 1 {
			slices.SortStableFunc(run, longerFirst)
		}
	}
	return ix
}

// find returns the table slot holding w, or the empty slot where w would
// be inserted.
func (ix *firstWordIndex) find(w uint32) int {
	mask := len(ix.keys) - 1
	s := int(uint64(w) * 0x9E3779B97F4A7C15 >> ix.shift)
	for ix.slot[s] != 0 && ix.keys[s] != w {
		s = (s + 1) & mask
	}
	return s
}

// run returns the entry indices whose first word is w, longest first.
func (ix *firstWordIndex) run(w uint32) []int32 {
	r := ix.slot[ix.find(w)] - 1
	if r < 0 {
		return nil
	}
	return ix.order[ix.runAt[r]:ix.runAt[r+1]]
}
