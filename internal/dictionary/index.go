// The indexed greedy builder: the default implementation of the paper's
// §3.1 algorithm, rebuilt around an occurrence index so selection is
// incremental instead of rescan-everything, and laid out so the selection
// loop reads dense, mostly sequential memory.
//
// Three mechanisms replace the reference builder's hot spots:
//
//  1. Enumeration is one stable sort, not a table of keys. Every
//     compressible start position is ordered word-lexicographically by the
//     longest in-block sequence it begins, using one LSD counting-sort pass
//     per sequence offset over 1-based word ranks (rank 0 means "sequence
//     ended", so a prefix sorts before its extensions). Adjacent sorted
//     starts share exactly the sequences up to their longest common
//     prefix, so a sequence repeats exactly when a start shares it
//     with a sorted neighbour. The whole LCP array comes first; each start
//     then keeps only the lengths up to its longer LCP with either
//     neighbour, and a single walk of the sorted starts meets each
//     repeated sequence once — already in the reference's serial order,
//     its big-endian byte-key sort. A sequence that occurs once gets no
//     candidate, slot or pos entry: it can never be selected (see
//     indexable). Nothing is hashed, interned or compared pairwise, and
//     every array is allocated at its exact size. The same walk counts
//     each candidate's occurrences into a dense cursor array; the
//     occurrence lists are then consecutive runs of one pos array, in
//     serial order, filled in text order through the cursor, so no
//     candidate record is touched while filling.
//
//  2. A start-position → occurrences inverted index makes invalidation
//     exact: the moment a selection covers a word range, every candidate
//     occurrence overlapping that range is tombstoned and its candidate
//     marked dirty. Coverage is therefore fully encoded in the occurrence
//     lists themselves — a live occurrence is free by construction — so
//     re-valuing a candidate never walks covered words at all. The slots
//     of start j hold its occurrences by length, so covering p..p+k-1
//     visits, for each start j in [p-maxLen+1, p+k), only the slots from
//     length max(p-j, 0)+1 up: shorter ones end before p. A tombstoned
//     occurrence is marked in its own slot too, so passing over an
//     already-dead one reads only the slot being walked; only a kill
//     touches the candidate record.
//
//  3. Each candidate carries its live-occurrence count and a cached
//     greedy use count that stays exact while the candidate is clean.
//     A heap pop of a clean candidate recomputes savings from the cached
//     uses in O(1) (dict.dirty_skips); only dirty candidates rescan their
//     occurrence list, and that rescan compacts tombstones out so dead
//     occurrences are skipped once and never revisited — the "next free
//     position" role the covered-word walk played in the reference. The
//     heap holds 8-byte values, savings and serial packed so that one
//     integer comparison orders them, so sifting reads no records.
//
// The heap discipline is unchanged from the reference: cached savings are
// upper bounds (uses only shrink, CodewordBits is non-decreasing in rank),
// so a popped candidate whose exact value matches its cached key is the
// true maximum of the round, with ties broken by the same deterministic
// serial order. Keys are unique, so the pop order is that of any correct
// heap. Both builders must produce byte-identical Results on every input;
// differential and fuzz tests enforce it.
package dictionary

import "math"

// icand is one candidate of the indexed builder: 20 bytes. Its serial is
// its index in index.cands, and its words are those at any of its
// occurrences. It is done with once live reaches 0: every occurrence is
// covered, and selection covers all of the selected candidate's.
type icand struct {
	k    int32
	from int32 // scans start here: index.pos index of the first live occurrence
	end  int32 // the occurrence starts end at index.pos[end]
	live int32 // occurrences not yet tombstoned
	uses int32 // cached greedy non-overlap count, exact while ≥ 0; cover sets -1 (dirty)
}

// occRef locates one occurrence: candidate c, start index.pos[idx]. Once
// the occurrence is tombstoned, idx holds ^idx (negative), so the slot
// alone says it is dead and still names its entry.
type occRef struct {
	c, idx int32
}

// index is the enumeration result plus the inverted occurrence index.
type index struct {
	text   []uint32
	cands  []icand  // serial order
	pos    []int32  // each candidate's ascending occurrence starts, runs in serial order; -1 tombstones
	occ    []occRef // the occurrence of length k at p is occ[occOff[p]+k-1]
	occOff []int32  // start position → occ[occOff[p]:occOff[p+1]]
	maxLen int

	// distinct counts the distinct in-block sequences, including those
	// that occur once and so get no candidate.
	distinct int

	// Selection state, allocated by the builder that selects.
	covered    []bool  // words absorbed by a selected entry
	coverEntry []int32 // rank of the entry whose codeword starts at a word; -1 elsewhere

	invalidations int64
}

// indexable reports whether the index can hold the build: its occurrence
// slots are int32, and its heap keys carry savings in 31 bits. Savings are
// below 32·n: a candidate's non-overlapping uses of length k cover at most
// n words, so uses·(32k−cw) ≤ 32n when codewords cost cw ≥ 0 bits, and
// the entry's own 32k+overhead bits only subtract when overhead ≥ 0.
// The same two bounds are why the index leaves out sequences that occur
// once: one use saves (32k−cw) − (32k+overhead) = −cw−overhead ≤ 0 bits,
// and only positive savings are ever selected. Nothing real comes within
// two orders of magnitude of the size bound; the reference builders serve
// whatever fails it.
func indexable(n int, cfg Config) bool {
	return int64(n)*int64(max(min(cfg.MaxEntryLen, n), 32)) < math.MaxInt32 &&
		cfg.EntryOverheadBits >= 0 && cfg.CodewordBits(0) >= 0
}

// buildIndexed runs the indexed greedy algorithm. Output is byte-identical
// to buildReference. afterCommit, when non-nil, sees the index after
// every selection, with the serial and rank of the entry selected (a test
// seam).
func buildIndexed(text []uint32, cfg Config, maxEntries int, afterCommit func(ix *index, serial int32, rank int)) *Result {
	n := len(text)
	if !indexable(n, cfg) {
		return buildReference(text, cfg, maxEntries)
	}
	spE := cfg.Trace.Child("dict.enumerate")
	ix := newIndex(text, cfg)
	spE.SetInt("candidates", int64(ix.distinct)).End()
	cfg.Stats.Add("dict.candidates", int64(ix.distinct))
	ix.startSelection()
	res := &Result{}

	spS := cfg.Trace.Child("dict.select")
	rank := 0
	var pops, reevals, dirtySkips int64
	// Size the heap exactly: most candidates are worth nothing from the
	// start.
	worth := 0
	for i := range ix.cands {
		c := &ix.cands[i]
		c.uses = ix.initialUses(c)
		if savings(int(c.uses), int(c.k), cfg, rank) > 0 {
			worth++
		}
	}
	h := make(valHeap, 0, worth)
	for i := range ix.cands {
		c := &ix.cands[i]
		if v := savings(int(c.uses), int(c.k), cfg, rank); v > 0 {
			h = append(h, heapKey(v, int32(i)))
		}
	}
	h.init()
	for len(h) > 0 && rank < maxEntries {
		key := h.pop()
		serial := keySerial(key)
		c := &ix.cands[serial]
		pops++
		if c.live == 0 {
			continue
		}
		if c.uses < 0 {
			ix.rescan(c)
		} else {
			dirtySkips++
		}
		v := savings(int(c.uses), int(c.k), cfg, rank)
		if v <= 0 {
			continue // worthless now and at every later rank; not requeued
		}
		if v < keyVal(key) {
			h.push(heapKey(v, serial))
			reevals++
			continue
		}
		ix.commit(c, rank, res)
		cfg.Stats.ObserveValue("dict.selection_bits", int64(v))
		if afterCommit != nil {
			afterCommit(ix, serial, rank)
		}
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
	assembleItems(text, ix.covered, ix.coverEntry, res)
	spC.End()
	return res
}

// startSelection allocates the coverage vectors a selection loop fills.
func (ix *index) startSelection() {
	ix.covered = make([]bool, len(ix.text))
	ix.coverEntry = make([]int32, len(ix.text))
	for i := range ix.coverEntry {
		ix.coverEntry[i] = -1
	}
}

// newIndex enumerates every compressible in-block sequence of length
// 1..MaxEntryLen that occurs at least twice, in serial order, and records
// the inverted start-position index used for incremental invalidation.
func newIndex(text []uint32, cfg Config) *index {
	n := len(text)
	maxLen := int32(min(cfg.MaxEntryLen, n))

	// span[p] is the number of sequences starting at p: the run of
	// compressible words from p that crosses no leader, capped at maxLen.
	// It lives in occOff[1:], which a prefix sum turns into the slot
	// offsets once spans are trimmed.
	occOff := make([]int32, n+1)
	span := occOff[1:]
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
	starts := make([]int32, 0, m)
	for p := 0; p < n; p++ {
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

	// lcp[t] is the longest common prefix of starts t-1 and t (0 for the
	// first). Each start begins span-lcp sequences no earlier start begins.
	ix := &index{text: text, maxLen: cfg.MaxEntryLen, occOff: occOff}
	lcp := key
	for t, b := range starts {
		l := int32(0)
		if t > 0 {
			a := starts[t-1]
			for lim := min(span[a], span[b]); l < lim && rank[a+l] == rank[b+l]; {
				l++
			}
		}
		lcp[t] = l
		ix.distinct += int(span[b] - l)
	}

	// A sequence occurs at least twice exactly when a sorted start shares it
	// with a neighbour, so trim each start's span to its longer common
	// prefix with either one: the slots cut off hold sequences that occur
	// once, which can never save anything (see indexable).
	nc := 0
	for t, b := range starts {
		next := int32(0)
		if t+1 < len(starts) {
			next = lcp[t+1]
		}
		span[b] = max(lcp[t], next)
		nc += int(span[b] - lcp[t])
	}
	for p := 0; p < n; p++ {
		occOff[p+1] += occOff[p] // span[p] becomes the end of p's slots
	}

	// A start shares its predecessor's candidates up to their longest
	// common prefix; each longer prefix it keeps is a new candidate, and
	// meeting them in this order is the serial order.
	ix.cands = make([]icand, nc)
	ix.occ = make([]occRef, ix.occOff[n])
	// Occurrences per candidate, in the sort's spare buffer when it fits.
	cursor := buf[:0]
	if cap(cursor) < nc {
		cursor = make([]int32, nc)
	}
	cursor = cursor[:nc]
	s := int32(0)
	for t, b := range starts {
		o, l := ix.occOff[b], lcp[t]
		if l > 0 {
			oa := ix.occOff[starts[t-1]]
			for k := int32(0); k < l; k++ {
				c := ix.occ[oa+k].c
				ix.occ[o+k].c = c
				cursor[c]++
			}
		}
		for k := l + 1; k <= occOff[b+1]-o; k++ {
			ix.cands[s] = icand{k: k}
			ix.occ[o+k-1].c = s
			cursor[s] = 1
			s++
		}
	}

	// Occurrence lists: carve them out of one array in serial order, then
	// fill them in text order, so every list ascends, through the cursor.
	off := int32(0)
	for i, live := range cursor {
		ix.cands[i].from, ix.cands[i].live = off, live
		cursor[i] = off
		off += live
		ix.cands[i].end = off
	}
	ix.pos = make([]int32, len(ix.occ))
	for p := 0; p < n; p++ {
		for o := ix.occOff[p]; o < ix.occOff[p+1]; o++ {
			r := &ix.occ[o]
			r.idx = cursor[r.c]
			cursor[r.c]++
			ix.pos[r.idx] = int32(p)
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
func (ix *index) initialUses(c *icand) int32 {
	var uses int32
	last := int32(-1)
	for _, p := range ix.pos[c.from:c.end] {
		if p <= last {
			continue
		}
		uses++
		last = p + c.k - 1
	}
	return uses
}

// rescan recomputes the cached use count of a dirty candidate (uses < 0).
// Tombstones stay in place — the inverted index holds stable positions
// into pos — but the skip pointer advances past the leading dead run so
// repeated rescans of a mostly-consumed candidate start at its first live
// occurrence instead of re-walking covered territory. Every live
// occurrence is free by construction: cover tombstones all occurrences
// overlapping a range at the moment the range is covered.
func (ix *index) rescan(c *icand) {
	var uses int32
	last := int32(-1)
	from := c.from
	atFront := true
	for i := c.from; i < c.end; i++ {
		p := ix.pos[i]
		if p < 0 {
			if atFront {
				from = i + 1
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
}

// commit records c, which has at least one use, as the entry with the
// given rank, covering each accepted occurrence and invalidating — through
// the inverted index — exactly the occurrences that overlap the newly
// covered words. The entry's words alias the text at its first use until
// ownWords copies them out.
func (ix *index) commit(c *icand, rank int, res *Result) {
	uses := 0
	first, last := int32(-1), int32(-1)
	k := int(c.k)
	for i := c.from; i < c.end; i++ {
		p := ix.pos[i]
		if p < 0 || p <= last { // tombstoned (possibly by an earlier cover in this loop) or overlapping
			continue
		}
		ix.cover(int(p), k)
		ix.coverEntry[p] = int32(rank)
		if uses == 0 {
			first = p
		}
		uses++
		last = p + c.k - 1
	}
	res.Entries = append(res.Entries, Entry{Words: ix.text[first : first+c.k], Uses: uses})
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
// [p-maxLen+1, p+k) need visiting, and from a start j < p only the slots
// of length kc > p-j. A dead slot says so itself (its idx is
// complemented), so passing over one touches no candidate record.
func (ix *index) cover(p, k int) {
	for j := p; j < p+k; j++ {
		ix.covered[j] = true
	}
	for j := max(p-ix.maxLen+1, 0); j < p+k; j++ {
		for o := ix.occOff[j] + int32(max(p-j, 0)); o < ix.occOff[j+1]; o++ {
			r := &ix.occ[o]
			if r.idx < 0 {
				continue // already dead
			}
			ix.pos[r.idx] = -1
			r.idx = ^r.idx
			c := &ix.cands[r.c]
			c.live--
			c.uses = -1
			ix.invalidations++
		}
	}
}

// valHeap is a max-heap of packed candidate keys (see heapKey). Keys are
// unique, so its pop order is the one total order the reference builder's
// heap pops in.
type valHeap []uint64

// heapKey packs savings into the high half and MaxInt32-serial into the
// low half, so one unsigned comparison orders by savings descending, then
// serial ascending. The caller guarantees 0 < val < 32·len(text) <
// MaxInt32 (see indexable).
func heapKey(val int, serial int32) uint64 {
	return uint64(val)<<32 | uint64(math.MaxInt32-serial)
}

// keyVal and keySerial unpack a heapKey.
func keyVal(key uint64) int      { return int(key >> 32) }
func keySerial(key uint64) int32 { return math.MaxInt32 - int32(uint32(key)) }

func (h valHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *valHeap) push(key uint64) {
	*h = append(*h, key)
	h.up(len(*h) - 1)
}

func (h *valHeap) pop() uint64 {
	old := *h
	n := len(old) - 1
	top := old[0]
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

func (h valHeap) up(i int) {
	key := h[i]
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] >= key {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = key
}

func (h valHeap) down(i int) {
	n := len(h)
	if i >= n {
		return
	}
	key := h[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r] > h[child] {
			child = r
		}
		if key >= h[child] {
			break
		}
		h[i] = h[child]
		i = child
	}
	h[i] = key
}
