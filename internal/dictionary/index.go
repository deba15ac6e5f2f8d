// The indexed greedy builder: the default implementation of the paper's
// §3.1 algorithm, rebuilt around an occurrence index so selection is
// incremental instead of rescan-everything.
//
// Three mechanisms replace the reference builder's hot spots:
//
//  1. Enumeration is one stable sort, not a table of keys. Every
//     compressible start position is ordered word-lexicographically by the
//     longest in-block sequence it begins, using one LSD counting-sort pass
//     per sequence offset over 1-based word ranks (rank 0 means "sequence
//     ended", so a prefix sorts before its extensions). Adjacent sorted
//     starts share exactly the candidates up to their longest common
//     prefix, so a single walk of the sorted starts meets each distinct
//     sequence once — already in the reference's serial order, its
//     big-endian byte-key sort. Nothing is hashed, interned or compared
//     pairwise, and every array is allocated at its exact size.
//
//  2. A start-position → occurrences inverted index makes invalidation
//     exact: the moment a selection covers a word range, every candidate
//     occurrence overlapping that range is tombstoned and its candidate
//     marked dirty. Coverage is therefore fully encoded in the occurrence
//     lists themselves — a live occurrence is free by construction — so
//     re-valuing a candidate never walks covered words at all.
//
//  3. Each candidate carries its live-occurrence count and a cached
//     greedy use count that stays exact while the candidate is clean.
//     A heap pop of a clean candidate recomputes savings from the cached
//     uses in O(1) (dict.dirty_skips); only dirty candidates rescan their
//     occurrence list, and that rescan compacts tombstones out so dead
//     occurrences are skipped once and never revisited — the "next free
//     position" role the covered-word walk played in the reference.
//
// The heap discipline is unchanged from the reference: cached savings are
// upper bounds (uses only shrink, CodewordBits is non-decreasing in rank),
// so a popped candidate whose exact value matches its cached key is the
// true maximum of the round, with ties broken by the same deterministic
// serial order. Both builders must produce byte-identical Results on every
// input; differential and fuzz tests enforce it.
package dictionary

import (
	"container/heap"
	"math"
)

// icand is one candidate of the indexed builder.
type icand struct {
	pos    []int32 // sorted occurrence starts; -1 tombstones dead ones
	at     int32   // first occurrence: the words are text[at : at+k]
	k      int32
	serial int32 // deterministic tie-break rank (word-lexicographic)
	from   int32 // scans start here: index of the first live occurrence
	live   int32 // occurrences not yet tombstoned
	uses   int32 // cached greedy non-overlap count; exact while !dirty
	val    int   // heap key: savings computed from uses at a past rank
	dirty  bool  // an occurrence died since uses was computed
	dead   bool  // worthless, fully covered, or already selected
}

// occRef locates one occurrence: entry idx of cands[c].pos.
type occRef struct {
	c, idx int32
}

// index is the enumeration result plus the inverted occurrence index.
type index struct {
	text   []uint32
	cands  []icand  // serial order: cands[s].serial == s
	occ    []occRef // the occurrence of length k at p is occ[occOff[p]+k-1]
	occOff []int32  // start position → occ[occOff[p]:occOff[p+1]]
	maxLen int

	invalidations int64
}

// buildIndexed runs the indexed greedy algorithm. Output is byte-identical
// to buildReference.
func buildIndexed(text []uint32, cfg Config, maxEntries int) *Result {
	n := len(text)
	if int64(n)*int64(min(cfg.MaxEntryLen, n)) >= math.MaxInt32 {
		// Occurrence slots are int32; nothing real comes within two
		// orders of magnitude of this.
		return buildReference(text, cfg, maxEntries)
	}
	spE := cfg.Trace.Child("dict.enumerate")
	ix := newIndex(text, cfg)
	spE.SetInt("candidates", int64(len(ix.cands))).End()
	cfg.Stats.Add("dict.candidates", int64(len(ix.cands)))

	covered := make([]bool, n)
	coverEntry := newCoverEntry(n)
	res := &Result{}

	spS := cfg.Trace.Child("dict.select")
	rank := 0
	var pops, reevals, dirtySkips int64
	h := make(icandHeap, 0, len(ix.cands))
	for i := range ix.cands {
		c := &ix.cands[i]
		c.uses = initialUses(c)
		c.val = savings(int(c.uses), int(c.k), cfg, rank)
		if c.val > 0 {
			h = append(h, c)
		}
	}
	heap.Init(&h)
	for h.Len() > 0 && rank < maxEntries {
		c := heap.Pop(&h).(*icand)
		pops++
		if c.dead {
			continue
		}
		if c.dirty {
			rescan(c)
		} else {
			dirtySkips++
		}
		v := savings(int(c.uses), int(c.k), cfg, rank)
		if v <= 0 {
			c.dead = true
			continue
		}
		if v < c.val {
			c.val = v
			heap.Push(&h, c)
			reevals++
			continue
		}
		ix.commit(c, rank, covered, coverEntry, res)
		cfg.Stats.ObserveValue("dict.selection_bits", int64(v))
		c.dead = true
		rank++
	}
	cfg.Stats.Add("dict.heap_pops", pops)
	cfg.Stats.Add("dict.reevaluations", reevals)
	cfg.Stats.Add("dict.dirty_skips", dirtySkips)
	cfg.Stats.Add("dict.invalidations", ix.invalidations)
	cfg.Stats.Add("dict.entries", int64(rank))
	spS.SetInt("entries", int64(rank)).End()
	spC := cfg.Trace.Child("dict.commit")
	ownWords(res)
	assembleItems(text, covered, coverEntry, res)
	spC.End()
	return res
}

// newIndex enumerates every compressible in-block sequence of length
// 1..MaxEntryLen, in serial order, and records the inverted
// start-position index used for incremental invalidation.
func newIndex(text []uint32, cfg Config) *index {
	n := len(text)
	maxLen := int32(min(cfg.MaxEntryLen, n))

	// span[p] is the number of candidates starting at p: the run of
	// compressible words from p that crosses no leader, capped at maxLen.
	span := make([]int32, n)
	m, maxSpan := 0, int32(0)
	for p := n - 1; p >= 0; p-- {
		if !cfg.Compressible[p] {
			continue
		}
		s := int32(1)
		if p+1 < n && !cfg.Leader[p+1] {
			s += span[p+1]
		}
		span[p] = min(s, maxLen)
		maxSpan = max(maxSpan, span[p])
		m++
	}
	ix := &index{text: text, maxLen: cfg.MaxEntryLen, occOff: make([]int32, n+1)}
	starts := make([]int32, 0, m)
	for p := 0; p < n; p++ {
		ix.occOff[p+1] = ix.occOff[p] + span[p]
		if span[p] > 0 {
			starts = append(starts, int32(p))
		}
	}

	// Rank the distinct compressible words 1.. in ascending order: sort
	// the starts by their word a byte at a time, then number the runs.
	buf := make([]int32, m)
	key := make([]int32, m)
	cnt := make([]int32, 256)
	for shift := 0; shift < 32; shift += 8 {
		for t, p := range starts {
			key[t] = int32(text[p] >> shift & 0xff)
		}
		countingSort(buf, starts, key, cnt)
		starts, buf = buf, starts
	}
	rank := make([]int32, n)
	var ranks int32
	for t, p := range starts {
		if t == 0 || text[p] != text[starts[t-1]] {
			ranks++
		}
		rank[p] = ranks
	}

	// Order the starts word-lexicographically by their longest sequence,
	// least significant offset first.
	cnt = make([]int32, ranks+1)
	for j := maxSpan - 1; j >= 0; j-- {
		for t, p := range starts {
			key[t] = 0
			if j < span[p] {
				key[t] = rank[p+j]
			}
		}
		countingSort(buf, starts, key, cnt)
		starts, buf = buf, starts
	}

	// A start shares its predecessor's candidates up to their longest
	// common prefix; each longer prefix is a new candidate, and meeting
	// them in this order is the serial order.
	lcp := key
	nc := 0
	for t, b := range starts {
		l := int32(0)
		if t > 0 {
			a := starts[t-1]
			for lim := min(span[a], span[b]); l < lim && rank[a+l] == rank[b+l]; {
				l++
			}
		}
		lcp[t] = l
		nc += int(span[b] - l)
	}
	ix.cands = make([]icand, nc)
	ix.occ = make([]occRef, ix.occOff[n])
	s := int32(0)
	for t, b := range starts {
		o, l := ix.occOff[b], lcp[t]
		if l > 0 {
			oa := ix.occOff[starts[t-1]]
			copy(ix.occ[o:o+l], ix.occ[oa:oa+l])
		}
		for k := l + 1; k <= span[b]; k++ {
			ix.cands[s] = icand{at: b, k: k, serial: s}
			ix.occ[o+k-1].c = s
			s++
		}
	}

	// Occurrence lists: size each exactly, carve them out of one array,
	// and fill them in text order so every list ascends.
	for _, r := range ix.occ {
		ix.cands[r.c].live++
	}
	posAll := make([]int32, len(ix.occ))
	off := int32(0)
	for i := range ix.cands {
		c := &ix.cands[i]
		c.pos = posAll[off : off : off+c.live]
		off += c.live
	}
	for p := 0; p < n; p++ {
		for o := ix.occOff[p]; o < ix.occOff[p+1]; o++ {
			c := &ix.cands[ix.occ[o].c]
			ix.occ[o].idx = int32(len(c.pos))
			c.pos = append(c.pos, int32(p))
		}
	}
	return ix
}

// countingSort stably permutes src into dst by key, where key[t] is the
// key of src[t] and cnt has one slot per possible key.
func countingSort(dst, src, key, cnt []int32) {
	clear(cnt)
	for _, k := range key {
		cnt[k]++
	}
	sum := int32(0)
	for i, c := range cnt {
		cnt[i] = sum
		sum += c
	}
	for t, k := range key {
		dst[cnt[k]] = src[t]
		cnt[k]++
	}
}

// initialUses is the greedy non-overlap count before anything is covered.
func initialUses(c *icand) int32 {
	var uses int32
	last := int32(-1)
	for _, p := range c.pos {
		if p <= last {
			continue
		}
		uses++
		last = p + c.k - 1
	}
	return uses
}

// rescan recomputes the cached use count of a dirty candidate. Tombstones
// stay in place — the inverted index holds stable positions into pos — but
// the skip pointer advances past the leading dead run so repeated rescans
// of a mostly-consumed candidate start at its first live occurrence
// instead of re-walking covered territory. Every live occurrence is free
// by construction: cover tombstones all occurrences overlapping a range at
// the moment the range is covered.
func rescan(c *icand) {
	var uses int32
	last := int32(-1)
	from := c.from
	atFront := true
	for i := int(c.from); i < len(c.pos); i++ {
		p := c.pos[i]
		if p < 0 {
			if atFront {
				from = int32(i) + 1
			}
			continue
		}
		atFront = false
		if p <= last {
			continue
		}
		uses++
		last = p + c.k - 1
	}
	c.from = from
	c.uses = uses
	c.dirty = false
}

// commit records c as the entry with the given rank, covering each
// accepted occurrence and invalidating — through the inverted index —
// exactly the occurrences that overlap the newly covered words. The
// entry's words alias the text until ownWords copies them out.
func (ix *index) commit(c *icand, rank int, covered []bool, coverEntry []int, res *Result) {
	uses := 0
	last := int32(-1)
	k := int(c.k)
	for i := int(c.from); i < len(c.pos); i++ {
		p := c.pos[i]
		if p < 0 || p <= last { // tombstoned (possibly by an earlier cover in this loop) or overlapping
			continue
		}
		ix.cover(int(p), k, covered)
		coverEntry[p] = rank
		uses++
		last = p + c.k - 1
	}
	res.Entries = append(res.Entries, Entry{Words: ix.text[c.at : c.at+c.k], Uses: uses})
	res.CoveredInsns += uses * k
}

// ownWords copies every entry's words into one slice owned by the result,
// so the Result shares no storage with the caller's text.
func ownWords(res *Result) {
	total := 0
	for _, e := range res.Entries {
		total += len(e.Words)
	}
	words := make([]uint32, 0, total)
	for i := range res.Entries {
		e := &res.Entries[i]
		w := len(words)
		words = append(words, e.Words...)
		e.Words = words[w:len(words):len(words)]
	}
}

// cover marks words p..p+k-1 covered and tombstones every candidate
// occurrence overlapping that range: an occurrence starting at j with
// length kc overlaps iff j < p+k and j+kc > p, so only starts in
// [p-maxLen+1, p+k) need visiting.
func (ix *index) cover(p, k int, covered []bool) {
	for j := p; j < p+k; j++ {
		covered[j] = true
	}
	lo := p - ix.maxLen + 1
	if lo < 0 {
		lo = 0
	}
	for j := lo; j < p+k; j++ {
		for _, r := range ix.occ[ix.occOff[j]:ix.occOff[j+1]] {
			c := &ix.cands[r.c]
			if c.pos[r.idx] < 0 {
				continue // already dead
			}
			if j < p && int(c.k) <= p-j {
				continue // ends before the covered range
			}
			c.pos[r.idx] = -1
			c.live--
			c.dirty = true
			if c.live == 0 {
				c.dead = true
			}
			ix.invalidations++
		}
	}
}

// icandHeap is a max-heap over cached savings, serial ascending on ties —
// the same discipline as the reference builder's heap.
type icandHeap []*icand

func (h icandHeap) Len() int { return len(h) }
func (h icandHeap) Less(i, j int) bool {
	if h[i].val != h[j].val {
		return h[i].val > h[j].val
	}
	return h[i].serial < h[j].serial
}
func (h icandHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *icandHeap) Push(x interface{}) { *h = append(*h, x.(*icand)) }
func (h *icandHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}
