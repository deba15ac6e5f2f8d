// Package dictionary implements the paper's greedy dictionary construction
// (§3.1): enumerate candidate instruction sequences inside basic blocks,
// then repeatedly select the candidate with the largest immediate savings,
// replacing all of its non-overlapping occurrences, until the codeword
// space is exhausted or nothing saves bytes.
//
// Optimal selection is NP-complete [Storer77]; like the paper we are
// greedy. Because a candidate's savings only decreases as other selections
// consume its occurrences (and as codewords get longer with rank), a lazy
// re-evaluation max-heap finds the true maximum each round without
// rescanning every candidate.
//
// Two interchangeable implementations of the greedy policy live here. The
// default (index.go) enumerates candidates with one radix sort of start
// positions, keeps only the sequences that occur at least twice, and
// maintains an occurrence index so selections invalidate only the
// candidates they actually touch; the reference implementation
// (below) is the direct transcription of the paper's algorithm, kept as
// the differential oracle — both must produce byte-identical results on
// every input (enforced by differential and fuzz tests).
package dictionary

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/stats"
	"repro/internal/trace"
)

// Config parameterizes one dictionary build.
type Config struct {
	// MaxEntries bounds the number of dictionary entries (the codeword
	// space). Zero or negative means unlimited.
	//
	// The cap only stops the selection loop; it never changes what is
	// selected before it is reached. A build capped at n is therefore the
	// first n selections of the uncapped build — same entries, same Uses —
	// with the codewords of later entries expanded back into their words,
	// which is what Selection.Prefix computes.
	MaxEntries int

	// MaxEntryLen bounds instructions per entry (the paper sweeps 1..8).
	MaxEntryLen int

	// CodewordBits returns the encoded size of the codeword that will
	// represent the rank-th selected entry (rank counts from 0). It must
	// be non-decreasing in rank for the lazy heap to remain exact.
	CodewordBits func(rank int) int

	// EntryOverheadBits is the per-entry serialization overhead charged to
	// the dictionary, beyond the entry's raw instruction bytes.
	EntryOverheadBits int

	// Compressible marks words that may join a dictionary entry. Relative
	// branches are excluded by the compressor (§3.2.1); callers may
	// exclude more.
	Compressible []bool

	// Leader marks basic-block starts. Sequences must lie within a block:
	// they may begin at a leader but never span one, so branches can
	// target codewords but not the middle of an encoded sequence.
	Leader []bool

	// Strategy selects the entry-selection policy; the default is the
	// paper's greedy algorithm.
	Strategy Strategy

	// Stats, when non-nil, receives build observability counters:
	// dict.candidates (distinct in-block sequences enumerated, whether or
	// not they repeat), dict.heap_pops, dict.reevaluations (stale
	// candidates re-queued with refreshed savings), dict.entries (entries
	// selected), and — from the indexed builder — dict.invalidations
	// (occurrences killed by coverage, counted only for sequences that
	// occur at least twice: the index holds no other), dict.dirty_skips
	// (heap pops served from an exact cached use count, no occurrence
	// rescan). It also receives the dict.selection_bits
	// histogram: the savings (in bits) of each selected entry at the
	// moment of its selection — the paper's usage-vs-size distribution.
	// Counter values are implementation observability; only the Result
	// is contractual.
	Stats *stats.Recorder

	// Trace, when non-nil, is the parent span under which the build emits
	// its phase spans: dict.enumerate (candidate enumeration),
	// dict.select (the greedy selection loop) and dict.commit (assembling
	// the rewritten item sequence). Like Stats, it never affects the
	// Result.
	Trace *trace.Span
}

// Strategy is the dictionary-entry selection policy.
type Strategy uint8

// Selection policies.
const (
	// Greedy re-evaluates savings after every selection (the paper's
	// algorithm, §3.1.1). Implemented by the indexed builder: sort-based
	// enumeration, incremental invalidation through an occurrence index,
	// and a dirty-bit lazy heap. Byte-identical to GreedyReference.
	Greedy Strategy = iota

	// StaticOrder ranks candidates once by their initial savings and
	// selects in that fixed order — the ablation baseline showing what
	// greedy's re-evaluation buys.
	StaticOrder

	// GreedyReference is the direct transcription of the paper's greedy
	// algorithm (string-keyed enumeration, full occurrence rescans). It
	// is the differential oracle for Greedy: same output, none of the
	// indexing. Select it to cross-check the indexed builder or to
	// measure what the index buys.
	GreedyReference
)

// Entry is one selected dictionary entry.
type Entry struct {
	Words []uint32
	// Uses is the number of occurrences replaced in the program.
	Uses int
}

// SizeBytes is the raw size of the entry's instructions.
func (e Entry) SizeBytes() int { return 4 * len(e.Words) }

// Item is one element of the rewritten program: a codeword standing for
// dictionary entry Entry, or, when Entry is -1, the text word at OrigIdx
// left uncompressed. There is one per surviving word, so it holds no copy
// of that word and is 8 bytes: texts are bounded far below 2^31 words
// (every image format counts them in 32 bits), so indices fit int32.
type Item struct {
	OrigIdx int32 // original text word index (sequence start for codewords)
	Entry   int32 // the codeword's dictionary entry; -1 for an uncompressed word
}

// IsCodeword reports whether the item stands for a dictionary entry.
func (it Item) IsCodeword() bool { return it.Entry >= 0 }

// Result is the outcome of a build.
type Result struct {
	Entries []Entry
	Items   []Item

	// CoveredInsns counts original instructions absorbed into codewords.
	CoveredInsns int
}

// Build runs the selected algorithm over the program text.
func Build(text []uint32, cfg Config) (*Result, error) {
	n := len(text)
	if len(cfg.Compressible) != n || len(cfg.Leader) != n {
		return nil, fmt.Errorf("dictionary: marker slices must match text length %d", n)
	}
	if cfg.MaxEntryLen < 1 {
		return nil, fmt.Errorf("dictionary: MaxEntryLen %d", cfg.MaxEntryLen)
	}
	if cfg.CodewordBits == nil {
		return nil, fmt.Errorf("dictionary: CodewordBits required")
	}
	maxEntries := cfg.MaxEntries
	if maxEntries <= 0 {
		maxEntries = int(^uint(0) >> 1)
	}
	switch cfg.Strategy {
	case Greedy:
		return buildIndexed(text, cfg, maxEntries, nil), nil
	case GreedyReference:
		return buildReference(text, cfg, maxEntries), nil
	case StaticOrder:
		return buildStatic(text, cfg, maxEntries), nil
	default:
		return nil, fmt.Errorf("dictionary: unknown strategy %d", cfg.Strategy)
	}
}

// buildReference is the paper's greedy algorithm as originally written:
// every re-evaluation rescans the candidate's full occurrence list against
// the covered vector.
func buildReference(text []uint32, cfg Config, maxEntries int) *Result {
	spE := cfg.Trace.Child("dict.enumerate")
	cands := enumerate(text, cfg)
	spE.SetInt("candidates", int64(len(cands))).End()
	cfg.Stats.Add("dict.candidates", int64(len(cands)))
	covered := make([]bool, len(text))
	coverEntry := newCoverEntry(len(text))
	res := &Result{}

	spS := cfg.Trace.Child("dict.select")
	rank := 0
	h := &candHeap{}
	heap.Init(h)
	for _, c := range cands {
		c.val = value(c, covered, cfg, rank)
		if c.val > 0 {
			heap.Push(h, c)
		}
	}
	for h.Len() > 0 && rank < maxEntries {
		c := heap.Pop(h).(*cand)
		cfg.Stats.Add("dict.heap_pops", 1)
		v := value(c, covered, cfg, rank)
		if v <= 0 {
			continue // stale and now worthless; drop
		}
		if v < c.val {
			// Stale: re-queue with the refreshed value. Values only
			// ever decrease, so when a popped candidate's value is
			// current it really is the maximum.
			c.val = v
			heap.Push(h, c)
			cfg.Stats.Add("dict.reevaluations", 1)
			continue
		}
		if selectCand(c, rank, covered, coverEntry, res) {
			cfg.Stats.ObserveValue("dict.selection_bits", int64(v))
			rank++
		}
	}
	cfg.Stats.Add("dict.entries", int64(rank))
	spS.SetInt("entries", int64(rank)).End()
	spC := cfg.Trace.Child("dict.commit")
	assembleItems(text, covered, coverEntry, res)
	spC.End()
	return res
}

// buildStatic ranks candidates once by initial savings and selects in that
// fixed order (the ablation baseline). It runs on the indexed builder's
// enumeration and occurrence index, so a candidate's value at its turn
// comes from the cached use count, rescanning only if an earlier selection
// killed one of its occurrences. Output is byte-identical to the
// string-keyed transcription the tests keep as StaticReference.
func buildStatic(text []uint32, cfg Config, maxEntries int) *Result {
	n := len(text)
	if !indexable(n, cfg) {
		return buildStaticReference(text, cfg, maxEntries)
	}
	spE := cfg.Trace.Child("dict.enumerate")
	ix := newIndex(text, cfg)
	spE.SetInt("candidates", int64(ix.distinct)).End()
	cfg.Stats.Add("dict.candidates", int64(ix.distinct))
	ix.startSelection()
	res := &Result{}

	spS := cfg.Trace.Child("dict.select")
	// Candidates worth nothing now never become worth something: uses
	// only shrink and CodewordBits only grows with rank. Heap keys are
	// unique, so sorting them descending is the stable sort by initial
	// savings over serial order.
	order := make([]uint64, 0, len(ix.cands))
	for i := range ix.cands {
		c := &ix.cands[i]
		c.uses = ix.initialUses(c)
		if v := savings(int(c.uses), int(c.k), cfg, 0); v > 0 {
			order = append(order, heapKey(v, int32(i)))
		}
	}
	slices.Sort(order)
	rank := 0
	for i := len(order) - 1; i >= 0; i-- {
		if rank >= maxEntries {
			break
		}
		c := &ix.cands[keySerial(order[i])]
		if c.live == 0 {
			continue
		}
		if c.uses < 0 {
			ix.rescan(c)
		}
		v := savings(int(c.uses), int(c.k), cfg, rank)
		if v <= 0 {
			continue
		}
		ix.commit(c, rank, res)
		cfg.Stats.ObserveValue("dict.selection_bits", int64(v))
		rank++
	}
	cfg.Stats.Add("dict.entries", int64(rank))
	spS.SetInt("entries", int64(rank)).End()
	spC := cfg.Trace.Child("dict.commit")
	ownWords(res)
	assembleItems(text, ix.covered, ix.coverEntry, res)
	spC.End()
	return res
}

// buildStaticReference is buildStatic transcribed directly: string-keyed
// enumeration and a full occurrence rescan at every candidate's turn. It
// serves texts too large for the index's int32 slots and is the
// differential oracle for buildStatic.
func buildStaticReference(text []uint32, cfg Config, maxEntries int) *Result {
	spE := cfg.Trace.Child("dict.enumerate")
	cands := enumerate(text, cfg)
	spE.SetInt("candidates", int64(len(cands))).End()
	cfg.Stats.Add("dict.candidates", int64(len(cands)))
	covered := make([]bool, len(text))
	coverEntry := newCoverEntry(len(text))
	res := &Result{}

	spS := cfg.Trace.Child("dict.select")
	for _, c := range cands {
		c.val = value(c, covered, cfg, 0)
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].val > cands[j].val })
	rank := 0
	for _, c := range cands {
		if rank >= maxEntries {
			break
		}
		v := value(c, covered, cfg, rank)
		if v <= 0 {
			continue
		}
		if selectCand(c, rank, covered, coverEntry, res) {
			cfg.Stats.ObserveValue("dict.selection_bits", int64(v))
			rank++
		}
	}
	cfg.Stats.Add("dict.entries", int64(rank))
	spS.SetInt("entries", int64(rank)).End()
	spC := cfg.Trace.Child("dict.commit")
	assembleItems(text, covered, coverEntry, res)
	spC.End()
	return res
}

// selectCand replaces all non-overlapping free occurrences of c and
// records it as the entry with the given rank. It reports whether anything
// was replaced.
func selectCand(c *cand, rank int, covered []bool, coverEntry []int, res *Result) bool {
	uses := occScan(c, covered, func(p int) {
		for j := p; j < p+c.k; j++ {
			covered[j] = true
		}
		coverEntry[p] = rank
	})
	if uses == 0 {
		return false
	}
	res.Entries = append(res.Entries, Entry{Words: c.words, Uses: uses})
	res.CoveredInsns += uses * c.k
	return true
}

// newCoverEntry allocates the word→entry-rank vector (-1 = uncovered).
func newCoverEntry(n int) []int {
	ce := make([]int, n)
	for i := range ce {
		ce[i] = -1
	}
	return ce
}

// assembleItems builds the rewritten item sequence from the coverage
// vectors; shared by every builder so they can only differ in selection.
// The indexed builders keep ranks as int32 (texts are bounded far below
// 2^31 words), the reference builders as int.
func assembleItems[R int | int32](text []uint32, covered []bool, coverEntry []R, res *Result) {
	items := len(text) - res.CoveredInsns
	for _, e := range res.Entries {
		items += e.Uses
	}
	res.Items = make([]Item, 0, items)
	for i := range text {
		if e := coverEntry[i]; e >= 0 {
			res.Items = append(res.Items, Item{OrigIdx: int32(i), Entry: int32(e)})
			continue
		}
		if covered[i] {
			continue // interior of a replaced sequence
		}
		res.Items = append(res.Items, Item{OrigIdx: int32(i), Entry: -1})
	}
}

// cand is one candidate sequence of the reference builder.
type cand struct {
	words  []uint32
	k      int    // sequence length in instructions
	pos    []int  // sorted occurrence start indices
	val    int    // cached savings in bits
	key    string // byte key, for deterministic ordering
	serial int    // tie-break rank
}

// enumerate collects every compressible sequence of length 1..MaxEntryLen
// that lies within a basic block.
func enumerate(text []uint32, cfg Config) []*cand {
	byKey := make(map[string]*cand)
	var keyBuf []byte
	for i := range text {
		if !cfg.Compressible[i] {
			continue
		}
		keyBuf = keyBuf[:0]
		for k := 1; k <= cfg.MaxEntryLen && i+k <= len(text); k++ {
			j := i + k - 1
			if !cfg.Compressible[j] {
				break
			}
			if k > 1 && cfg.Leader[j] {
				break // would span into the next basic block
			}
			var wb [4]byte
			binary.BigEndian.PutUint32(wb[:], text[j])
			keyBuf = append(keyBuf, wb[:]...)
			key := string(keyBuf)
			c := byKey[key]
			if c == nil {
				c = &cand{k: k, words: append([]uint32(nil), text[i:i+k]...)}
				byKey[key] = c
			}
			c.pos = append(c.pos, i)
		}
	}
	out := make([]*cand, 0, len(byKey))
	for key, c := range byKey {
		c.key = key
		out = append(out, c)
	}
	// Deterministic total order: map iteration is random, and the greedy
	// loop must break savings ties identically on every run (otherwise
	// parameter sweeps like Fig. 5 jitter).
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	for serial, c := range out {
		c.serial = serial
	}
	return out
}

// free reports whether words p..p+k-1 are all uncovered.
func free(covered []bool, p, k int) bool {
	for j := p; j < p+k; j++ {
		if covered[j] {
			return false
		}
	}
	return true
}

// occScan is the reference builder's single occurrence walk, shared by
// value (count mode, nil commit) and selectCand (commit mode): visit the
// sorted occurrence list, skip starts overlapping an occurrence already
// accepted in this scan, skip starts touching covered words, accept the
// rest. The two modes cannot drift apart because committing only covers
// words at or before `last`, which later occurrences are already barred
// from by the overlap check.
func occScan(c *cand, covered []bool, commit func(p int)) int {
	uses := 0
	last := -1
	for _, p := range c.pos {
		if p < last+1 {
			continue
		}
		if !free(covered, p, c.k) {
			continue
		}
		if commit != nil {
			commit(p)
		}
		uses++
		last = p + c.k - 1
	}
	return uses
}

// value computes the candidate's current savings in bits.
func value(c *cand, covered []bool, cfg Config, rank int) int {
	return savings(occScan(c, covered, nil), c.k, cfg, rank)
}

// savings is the paper's §3.1 objective: each replaced occurrence trades
// 32·k instruction bits for one codeword, and the dictionary must store
// the sequence once plus serialization overhead.
func savings(uses, k int, cfg Config, rank int) int {
	if uses == 0 {
		return 0
	}
	cw := cfg.CodewordBits(rank)
	return uses*(32*k-cw) - (32*k + cfg.EntryOverheadBits)
}

// candHeap is a max-heap over cached savings.
type candHeap []*cand

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].val != h[j].val {
		return h[i].val > h[j].val
	}
	return h[i].serial < h[j].serial
}
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(*cand)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}
