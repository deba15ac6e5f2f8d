// Package core implements the paper's contribution: post-compilation
// dictionary compression of PowerPC programs (§3). It builds the greedy
// dictionary over basic-block-confined sequences, replaces occurrences
// with codewords in one of the supported encodings, lays the result out at
// codeword-unit alignment, repatches every relative-branch offset in unit
// granularity (§3.2.2), rewrites out-of-range branches through
// register-indirect stubs, patches jump tables in the data section, and
// accounts for the dictionary in the compressed size (§4). It also
// provides the decompressor, the structural verifier, and the compressed
// fetch frontend of Figure 3 for the machine simulator.
package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync/atomic"

	"repro/internal/codeword"
	"repro/internal/dictionary"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/sizeaudit"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CompressedBase is the base address of compressed text in unit space.
// Branch fields hold unit displacements, so the base only matters for
// absolute values (jump tables, LR/CTR contents).
const CompressedBase = 0x0010_0000

// Options selects the encoding and dictionary shape.
type Options struct {
	// Scheme is the codeword encoding (baseline 2-byte by default).
	Scheme codeword.Scheme

	// MaxEntries bounds the dictionary; 0 means the scheme's maximum.
	MaxEntries int

	// MaxEntryLen bounds instructions per entry; 0 means the paper's
	// baseline of 4.
	MaxEntryLen int

	// Strategy selects the dictionary-building policy (ablation hook);
	// the zero value is the paper's greedy algorithm in its indexed
	// implementation. dictionary.GreedyReference selects the
	// rescan-everything oracle, which must produce an identical image.
	Strategy dictionary.Strategy

	// DynProfile, when non-nil, holds per-original-word execution counts
	// (from a profiling run). Codeword ranks are then assigned by dynamic
	// fetch frequency instead of static use count, so the shortest
	// codewords cover the most-executed sequences — minimizing run-time
	// fetch traffic at a possible small cost in static size. Length must
	// equal the program's text length.
	DynProfile []int64

	// Stats, when non-nil, receives pipeline observability: phase timers
	// (core.analyze, core.build, core.encode, core.patch) and the
	// dictionary builder's counters and histograms. It never affects the
	// produced image.
	Stats *stats.Recorder

	// Trace, when non-nil, is the parent span under which Compress nests
	// one span per pipeline phase (mirroring the Stats phase timers), with
	// the dictionary build's own phase spans below core.build. Like
	// Stats, it never affects the produced image.
	Trace *trace.Span

	// Audit, when non-nil, receives one byte-provenance record per emitted
	// stream item plus the stream padding, dictionary storage and header,
	// live as the stream is written. Tools audit an image through
	// (*Image).SizeAudit, which rebuilds the same records from its marks;
	// this live emitter is the reference the conservation test compares
	// that reconstruction against. Like Stats it is nil-safe and never
	// affects the produced image; callers Finish it with the image's
	// CompressedBytes after Compress returns.
	Audit *sizeaudit.Emitter
}

// Normalized resolves the option defaults: MaxEntryLen 0 becomes the
// paper's baseline of 4, and MaxEntries 0 (or anything beyond the scheme's
// codeword space) becomes the scheme maximum. Two Options that normalize
// equal always produce identical images, which is what cache keys must be
// computed over.
func (o Options) Normalized() Options {
	if o.MaxEntryLen == 0 {
		o.MaxEntryLen = 4
	}
	if o.MaxEntries == 0 || o.MaxEntries > o.Scheme.MaxEntries() {
		o.MaxEntries = o.Scheme.MaxEntries()
	}
	return o
}

// Fingerprint is a stable hex hash of the normalized image-shaping
// options (scheme, dictionary bounds, strategy, and any dynamic profile).
// Two Options that fingerprint equal produce identical images, so run
// bundles and cache layers can use it as the configuration identity
// without serializing the options themselves.
func (o Options) Fingerprint() string {
	n := o.Normalized()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d/%d/%d", n.Scheme, n.MaxEntries, n.MaxEntryLen, n.Strategy)
	for _, v := range n.DynProfile {
		fmt.Fprintf(h, "/%d", v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Mark records where an original instruction landed in the stream; it is
// sideband metadata for verification and disassembly, not part of the
// compressed size.
type Mark struct {
	Unit int32 // stream unit offset of the item
	Orig int32 // original text word index (sequence start for codewords)

	// Kind describes the item.
	Kind MarkKind
}

// MarkKind classifies stream items.
type MarkKind uint8

// Stream item kinds.
const (
	MarkRaw      MarkKind = iota // uncompressed non-branch instruction
	MarkCodeword                 // dictionary codeword
	MarkBranch                   // patched relative branch
	MarkStub                     // far branch expanded to an indirect stub
)

// Stats break the compressed program down for Figure 9.
type Stats struct {
	Items         int
	CodewordItems int
	RawItems      int // uncompressed instructions incl. branches
	StubBranches  int // far branches rewritten through registers
	CoveredInsns  int // original instructions absorbed into codewords

	// Figure 9 decomposition, in bits of the final stream.
	CodewordBits int // total codeword bits (incl. escape portion)
	EscapeBits   int // escape portion of the codewords
	RawBits      int // uncompressed instruction bits (incl. nibble escapes)
}

// Image is a compressed program.
type Image struct {
	Name   string
	Scheme codeword.Scheme

	Stream []byte
	Units  int

	// Entries are ranked by use count (most frequent first) so the
	// shortest codewords cover the hottest sequences.
	Entries []dictionary.Entry

	Base      uint32 // unit-space base address
	EntryUnit uint32 // absolute unit address of the entry point

	Data           []byte // data section with repatched jump tables
	DataBase       uint32
	JumpTableSlots []int

	Symbols []program.Symbol // Word field holds the *unit* offset

	// TextBase and OrigSymbols preserve the original program's text base
	// address and full symbol table (Word = original text word index), so a
	// compressed image can be symbolized in native terms through its
	// AddrMap — the guest profiler's requirement for producing profiles
	// diffable against an uncompressed run.
	TextBase    uint32
	OrigSymbols []program.Symbol

	Marks []Mark

	OriginalBytes   int
	StreamBytes     int
	DictionaryBytes int

	Stats Stats

	// predecode caches the decoded execution table (built lazily by
	// Predecode). Sideband only: never serialized, never part of the
	// compressed size; duplicate concurrent builds are benign.
	predecode atomic.Pointer[machine.Predecode]
}

// CompressedBytes is the total compressed size: stream plus dictionary,
// per the paper's accounting ("All compressed program sizes include the
// overhead of the dictionary").
func (img *Image) CompressedBytes() int { return img.StreamBytes + img.DictionaryBytes }

// Ratio is Eq. 1: compressed size / original size.
func (img *Image) Ratio() float64 {
	if img.OriginalBytes == 0 {
		return 0
	}
	return float64(img.CompressedBytes()) / float64(img.OriginalBytes)
}

// CompressFixed compresses a program against a pre-built dictionary (a
// ROM dictionary shared across programs, for instance). Entry order is
// preserved — codeword ranks must mean the same thing to every program
// sharing the dictionary — and the scheme must have room for them all.
func CompressFixed(p *program.Program, entries []dictionary.Entry, opt Options) (*Image, error) {
	opt = opt.Normalized()
	if len(entries) > opt.Scheme.MaxEntries() {
		return nil, fmt.Errorf("core: %d entries exceed %v's codeword space", len(entries), opt.Scheme)
	}
	an, err := program.Analyze(p)
	if err != nil {
		return nil, err
	}
	res, err := dictionary.Apply(p.Text, entries, dictionary.Config{
		Compressible: an.Compressible,
		Leader:       an.Leader,
	})
	if err != nil {
		return nil, err
	}
	// Identity ranking: the shared dictionary's order is fixed.
	rank := reranked{entries: res.Entries, of: make([]int, len(res.Entries))}
	for i := range rank.of {
		rank.of[i] = i
	}
	return assemble(p, an, opt, res, rank)
}

// BuildSharedDictionary runs the greedy builder over the concatenation of
// several programs and returns a single dictionary (most-used entries
// first) suitable for CompressFixed on each of them — the fleet-wide ROM
// dictionary deployment. Like Compress it times phases core.analyze (every
// program's §3.2.1 analysis) and core.build, and hands opt.Stats and
// opt.Trace to the dictionary builder.
func BuildSharedDictionary(programs []*program.Program, opt Options) ([]dictionary.Entry, error) {
	opt = opt.Normalized()
	spAnalyze := opt.Trace.Phase("core.analyze", opt.Stats)
	n := 0
	for _, p := range programs {
		n += len(p.Text)
	}
	text := make([]uint32, 0, n)
	compressible, leaders := make([]bool, 0, n), make([]bool, 0, n)
	for _, p := range programs {
		an, err := program.Analyze(p)
		if err != nil {
			spAnalyze.End()
			return nil, err
		}
		text = append(text, p.Text...)
		compressible = append(compressible, an.Compressible...)
		leaders = append(leaders, an.Leader...)
	}
	spAnalyze.End()

	spBuild := opt.Trace.Phase("core.build", opt.Stats)
	res, err := dictionary.Build(text, buildConfig(opt, compressible, leaders, spBuild))
	spBuild.End()
	if err != nil {
		return nil, err
	}
	rank := rerank(res, nil)
	return rank.entries, nil
}

// buildConfig is the greedy builder's configuration under normalized
// options, over per-word markers, with its phases nested under sp.
func buildConfig(opt Options, compressible, leader []bool, sp *trace.Span) dictionary.Config {
	return dictionary.Config{
		MaxEntries:        opt.MaxEntries,
		MaxEntryLen:       opt.MaxEntryLen,
		CodewordBits:      opt.Scheme.CodewordBits,
		EntryOverheadBits: codeword.EntryOverheadBits,
		Compressible:      compressible,
		Leader:            leader,
		Strategy:          opt.Strategy,
		Stats:             opt.Stats,
		Trace:             sp,
	}
}

// Compress runs the full pipeline: Build, then CompressBuilt on its
// result and analysis.
func Compress(p *program.Program, opt Options) (*Image, error) {
	res, an, err := Build(p, opt)
	if err != nil {
		return nil, err
	}
	return CompressBuilt(p, an, res, opt)
}

// Build runs the front half of Compress: the §3.2.1 analysis (phase
// core.analyze) and the greedy dictionary build under the normalized
// options (phase core.build). It returns the analysis beside the build;
// CompressBuilt takes both, or the analysis and a dictionary.Selection
// prefix of a less capped build of the same program and options.
func Build(p *program.Program, opt Options) (*dictionary.Result, *program.Analysis, error) {
	opt = opt.Normalized()
	spAnalyze := opt.Trace.Phase("core.analyze", opt.Stats)
	an, err := program.Analyze(p)
	spAnalyze.End()
	if err != nil {
		return nil, nil, err
	}

	spBuild := opt.Trace.Phase("core.build", opt.Stats)
	res, err := dictionary.Build(p.Text, buildConfig(opt, an.Compressible, an.Leader, spBuild))
	spBuild.End()
	if err != nil {
		return nil, nil, err
	}
	return res, an, nil
}

// CompressBuilt runs the back half of Compress on p's analysis an and a
// dictionary build of p under opt: it re-ranks the entries and assembles
// the image. Compress(p, opt) is exactly CompressBuilt(p, an, res, opt)
// for res, an = Build(p, opt).
func CompressBuilt(p *program.Program, an *program.Analysis, res *dictionary.Result, opt Options) (*Image, error) {
	opt = opt.Normalized()
	// Re-rank entries so the most frequent sequences receive the shortest
	// codewords (§3.1.3) — by static use count, or by dynamic fetch count
	// when a profile is supplied; remap item references.
	if opt.DynProfile != nil && len(opt.DynProfile) != len(p.Text) {
		return nil, fmt.Errorf("core: profile length %d != text length %d", len(opt.DynProfile), len(p.Text))
	}
	rank := rerank(res, opt.DynProfile)
	return assemble(p, an, opt, res, rank)
}

// assemble runs the scheme-dependent back half of the pipeline: layout,
// emission, branch patching, jump-table repatching and accounting.
func assemble(p *program.Program, an *program.Analysis, opt Options, res *dictionary.Result, rank reranked) (*Image, error) {
	img := &Image{
		Name:           p.Name,
		Scheme:         opt.Scheme,
		Entries:        rank.entries,
		Base:           CompressedBase,
		Data:           append([]byte(nil), p.Data...),
		DataBase:       p.DataBase,
		JumpTableSlots: append([]int(nil), p.JumpTableSlots...),
		TextBase:       p.TextBase,
		OrigSymbols:    append([]program.Symbol(nil), p.Symbols...),
		OriginalBytes:  p.SizeBytes(),
	}

	spEncode := opt.Trace.Phase("core.encode", opt.Stats)
	lay, err := layout(p, an, res.Items, rank.of, opt.Scheme)
	if err == nil {
		err = emit(img, an, res.Items, rank.of, lay, opt)
	}
	spEncode.End()
	if err != nil {
		return nil, err
	}

	defer opt.Trace.Phase("core.patch", opt.Stats).End()
	// Patch jump tables to absolute unit addresses in compressed space.
	jts, err := p.JumpTableTargets()
	if err != nil {
		return nil, err
	}
	for i, slot := range img.JumpTableSlots {
		u, ok := lay.unitAt(jts[i])
		if !ok {
			return nil, fmt.Errorf("core: jump table target word %d is not an item start", jts[i])
		}
		putBE32(img.Data[slot:], img.Base+uint32(u))
	}

	// Symbols and entry point.
	for _, s := range p.Symbols {
		if u, ok := lay.unitAt(s.Word); ok {
			img.Symbols = append(img.Symbols, program.Symbol{Name: s.Name, Word: u})
		}
	}
	eu, ok := lay.unitAt(p.Entry)
	if !ok {
		return nil, fmt.Errorf("core: entry word %d is not an item start", p.Entry)
	}
	img.EntryUnit = img.Base + uint32(eu)

	img.DictionaryBytes = codeword.DictBytes(entryLens(img.Entries))
	img.Stats.CoveredInsns = res.CoveredInsns
	// The dictionary's serialized storage and fixed header are overhead no
	// single function owns; they complete the audit's accounting of
	// CompressedBytes (stream + dictionary).
	opt.Audit.Global(sizeaudit.Dict, sizeaudit.DictRow,
		int64(img.DictionaryBytes-codeword.DictHeaderBytes)*8)
	opt.Audit.Global(sizeaudit.Header, sizeaudit.HeaderRow, int64(codeword.DictHeaderBytes)*8)
	return img, nil
}

// reranked carries the frequency-ordered dictionary.
type reranked struct {
	entries []dictionary.Entry
	of      []int // old index -> new rank
}

func rerank(res *dictionary.Result, profile []int64) reranked {
	weight := make([]int64, len(res.Entries))
	for i, e := range res.Entries {
		weight[i] = int64(e.Uses)
	}
	if profile != nil {
		// Dynamic weight: how often each entry's codeword is fetched,
		// approximated by the execution count of the sequence's first
		// instruction summed over all replaced occurrences.
		for i := range weight {
			weight[i] = 0
		}
		for _, it := range res.Items {
			if it.IsCodeword {
				weight[it.Entry] += profile[it.OrigIdx]
			}
		}
	}
	order := make([]int, len(res.Entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return weight[order[a]] > weight[order[b]]
	})
	r := reranked{
		entries: make([]dictionary.Entry, len(order)),
		of:      make([]int, len(order)),
	}
	for newIdx, oldIdx := range order {
		r.entries[newIdx] = res.Entries[oldIdx]
		r.of[oldIdx] = newIdx
	}
	return r
}

func entryLens(entries []dictionary.Entry) []int {
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = len(e.Words)
	}
	return out
}

func putBE32(b []byte, v uint32) {
	b[0] = byte(v >> 24)
	b[1] = byte(v >> 16)
	b[2] = byte(v >> 8)
	b[3] = byte(v)
}
