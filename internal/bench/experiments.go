package bench

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/lzw"
	"repro/internal/profile"
	"repro/internal/program"
	"repro/internal/thumb"
)

// baselineOpts is the paper's baseline configuration: 2-byte codewords,
// up to 8192 of them, entries of up to 4 instructions (§4.1).
func baselineOpts() core.Options {
	return core.Options{Scheme: codeword.Baseline, MaxEntryLen: 4}
}

// Runner is one experiment. Run receives a corpus view; when the view is
// engine-bound, helpers like rowsInOrder execute the per-benchmark rows on
// the engine's worker pool. Runners must produce identical tables
// regardless of the view's parallelism.
type Runner struct {
	ID    string
	Title string
	Run   func(*Corpus) (*Table, error)

	// Timing marks a wall-clock measurement experiment: its numbers vary
	// with the host, so it is excluded from the default all-experiments
	// selection (whose tables must be byte-identical run to run) and only
	// runs when named explicitly.
	Timing bool
}

// Deterministic returns the experiments whose tables reproduce
// byte-for-byte — everything except the Timing runners. This is the set
// nil/empty ResolveIDs expands to.
func Deterministic() []Runner {
	out := make([]Runner, 0, len(Experiments))
	for _, r := range Experiments {
		if !r.Timing {
			out = append(out, r)
		}
	}
	return out
}

// Experiments lists every reproduced table and figure plus the extension
// experiments, in paper order.
var Experiments = []Runner{
	{ID: "fig1", Title: "Distinct instruction encodings as a percentage of entire program", Run: Fig1},
	{ID: "table1", Title: "Usage of bits in branch offset field", Run: Table1},
	{ID: "fig4", Title: "Effect of dictionary entry size on compression ratio", Run: Fig4},
	{ID: "fig5", Title: "Effect of number of codewords on compression ratio", Run: Fig5},
	{ID: "table2", Title: "Maximum number of codewords used in baseline compression", Run: Table2},
	{ID: "fig6", Title: "Composition of dictionary by entry length (ijpeg)", Run: Fig6},
	{ID: "fig7", Title: "Bytes saved according to instruction length of dictionary entry (ijpeg)", Run: Fig7},
	{ID: "fig8", Title: "Compression ratio for 1-byte codewords (small dictionaries)", Run: Fig8},
	{ID: "fig9", Title: "Composition of compressed program (baseline, 8192 codewords)", Run: Fig9},
	{ID: "fig11", Title: "Nibble-aligned compression vs Unix Compress (LZW)", Run: Fig11},
	{ID: "table3", Title: "Prologue and epilogue code in benchmarks", Run: Table3},
	{ID: "baselines", Title: "Ext. A: dictionary schemes vs CCRP and Liao", Run: ExtBaselines},
	{ID: "icache", Title: "Ext. B: I-cache miss rate, original vs compressed", Run: ExtICache},
	{ID: "penalty", Title: "Ext. C: execution cost of the compressed fetch path", Run: ExtPenalty},
	{ID: "ablation-selection", Title: "Ablation: greedy vs static-order dictionary selection", Run: AblationSelection},
	{ID: "ablation-alignment", Title: "Ablation: unit-granular branch offsets vs padded targets", Run: AblationAlignment},
}

// Find returns the runner with the given id.
func Find(id string) (Runner, bool) {
	for _, r := range Experiments {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// Fig1 measures instruction-encoding redundancy.
func Fig1(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "fig1",
		Title:   "Distinct instruction encodings as a percentage of entire program",
		Columns: []string{"bench", "insns", "distinct", "multi-use", "single-use", "top1%→", "top10%→"},
		Note: "paper: single-use <20% on average; for go, top 1% of distinct words " +
			"cover 30% and top 10% cover 66% of the program",
	}
	names := c.Names()
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		e := profile.AnalyzeEncodings(p)
		return []string{name,
			fmt.Sprint(e.TotalInsns),
			fmt.Sprint(e.DistinctEncodings),
			pct(e.MultiUseFrac()),
			pct(e.SingleUseFrac()),
			pct(e.Coverage(0.01)),
			pct(e.Coverage(0.10))}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Table1 measures branch-offset field usage at finer alignments.
func Table1(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "table1",
		Title:   "Usage of bits in branch offset field",
		Columns: []string{"bench", "rel-branches", "no-2-byte", "%", "no-1-byte", "%", "no-4-bit", "%"},
		Note:    "paper: small overflow tails that grow as target resolution shrinks",
	}
	names := c.Names()
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		u := profile.AnalyzeBranchOffsets(p)
		return []string{name, fmt.Sprint(u.RelativeBranches),
			fmt.Sprint(u.TooNarrow2Byte), pct(u.Frac2Byte()),
			fmt.Sprint(u.TooNarrow1Byte), pct(u.Frac1Byte()),
			fmt.Sprint(u.TooNarrow4Bit), pct(u.Frac4Bit())}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig4 sweeps the maximum dictionary-entry length.
func Fig4(c *Corpus) (*Table, error) {
	lens := []int{1, 2, 4, 8}
	t := &Table{
		ID:      "fig4",
		Title:   "Compression ratio vs maximum instructions per dictionary entry (baseline scheme)",
		Columns: []string{"bench", "len=1", "len=2", "len=4", "len=8"},
		Note: "paper: ratio improves to length 4, then flattens or declines at 8 " +
			"(greedy picks large entries that destroy overlapping short matches)",
	}
	names := c.Names()
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		row := []string{name}
		for _, l := range lens {
			opt := baselineOpts()
			opt.MaxEntryLen = l
			img, err := c.Image(name, opt)
			if err != nil {
				return nil, err
			}
			row = append(row, ratioStr(img.Ratio()))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// fig5Sizes are Fig. 5's dictionary sizes (baseline codewords).
var fig5Sizes = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192}

// Fig5 sweeps the number of codewords.
func Fig5(c *Corpus) (*Table, error) {
	sizes := fig5Sizes
	t := &Table{
		ID:    "fig5",
		Title: "Compression ratio vs number of codewords (baseline scheme, entries ≤ 4)",
		Note: "paper: ratio improves with codeword count and saturates once only " +
			"single-use encodings remain; a few thousand codewords suffice",
	}
	t.Columns = []string{"bench"}
	for _, s := range sizes {
		t.Columns = append(t.Columns, fmt.Sprint(s))
	}
	// One work item per (benchmark, size) point: the sweep's cells are
	// independent compressions, so they saturate the pool instead of
	// serializing per row.
	names := c.Names()
	cells := make([]string, len(names)*len(sizes))
	err := c.each(len(cells), func(k int) error {
		name, s := names[k/len(sizes)], sizes[k%len(sizes)]
		opt := baselineOpts()
		opt.MaxEntries = s
		img, err := c.Image(name, opt)
		if err != nil {
			return err
		}
		cells[k] = ratioStr(img.Ratio())
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		t.AddRow(append([]string{name}, cells[i*len(sizes):(i+1)*len(sizes)]...)...)
	}
	return t, nil
}

// Table2 reports the maximum number of codewords each benchmark uses.
func Table2(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "Maximum number of codewords used (baseline, entries ≤ 4, unlimited budget)",
		Columns: []string{"bench", "max codewords", "ratio"},
		Note: "paper (full-size SPEC): compress 647 … gcc 7927; the stand-ins are " +
			"~10x smaller so counts scale down, but the ordering tracks program size",
	}
	names := c.Names()
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		img, err := c.Image(name, baselineOpts())
		if err != nil {
			return nil, err
		}
		return []string{name, fmt.Sprint(len(img.Entries)), ratioStr(img.Ratio())}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig6 reports dictionary composition by entry length for ijpeg.
func Fig6(c *Corpus) (*Table, error) {
	sizes := []int{128, 512, 2048, 8192}
	t := &Table{
		ID:      "fig6",
		Title:   "Composition of dictionary for ijpeg by entry length (entries ≤ 8)",
		Columns: []string{"dict size", "len1", "len2", "len3", "len4", "len5-8", "%len1"},
		Note:    "paper: single-instruction entries are 48–80% of the dictionary, growing with size",
	}
	err := rowsInOrder(c, t, len(sizes), func(i int) ([]string, error) {
		s := sizes[i]
		opt := core.Options{Scheme: codeword.Baseline, MaxEntries: s, MaxEntryLen: 8}
		img, err := c.Image("ijpeg", opt)
		if err != nil {
			return nil, err
		}
		var byLen [9]int
		long := 0
		for _, e := range img.Entries {
			k := len(e.Words)
			if k >= 5 {
				long++
			} else {
				byLen[k]++
			}
		}
		total := len(img.Entries)
		fr := 0.0
		if total > 0 {
			fr = float64(byLen[1]) / float64(total)
		}
		return []string{fmt.Sprint(s), fmt.Sprint(byLen[1]), fmt.Sprint(byLen[2]),
			fmt.Sprint(byLen[3]), fmt.Sprint(byLen[4]), fmt.Sprint(long), pct(fr)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig7 reports bytes saved by entry length for ijpeg.
func Fig7(c *Corpus) (*Table, error) {
	sizes := []int{128, 512, 2048, 8192}
	t := &Table{
		ID:      "fig7",
		Title:   "Program bytes removed by compression, by dictionary entry length (ijpeg, entries ≤ 8)",
		Columns: []string{"dict size", "len1", "len2", "len3", "len4", "len5-8", "%from-len1"},
		Note:    "paper: 1-instruction entries contribute roughly half the savings",
	}
	err := rowsInOrder(c, t, len(sizes), func(i int) ([]string, error) {
		s := sizes[i]
		opt := core.Options{Scheme: codeword.Baseline, MaxEntries: s, MaxEntryLen: 8}
		img, err := c.Image("ijpeg", opt)
		if err != nil {
			return nil, err
		}
		var saved [9]int
		long, total := 0, 0
		for rank, e := range img.Entries {
			k := len(e.Words)
			cwBytes := img.Scheme.CodewordBits(rank) / 8
			sv := e.Uses * (4*k - cwBytes)
			total += sv
			if k >= 5 {
				long += sv
			} else {
				saved[k] += sv
			}
		}
		fr := 0.0
		if total > 0 {
			fr = float64(saved[1]) / float64(total)
		}
		return []string{fmt.Sprint(s), fmt.Sprint(saved[1]), fmt.Sprint(saved[2]),
			fmt.Sprint(saved[3]), fmt.Sprint(saved[4]), fmt.Sprint(long), pct(fr)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// fig8Sizes are Fig. 8's dictionary sizes (one-byte codewords).
var fig8Sizes = []int{8, 16, 32}

// Fig8 measures the small-dictionary one-byte-codeword configurations.
func Fig8(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "fig8",
		Title:   "Compression ratio for 1-byte codewords, entries ≤ 4",
		Columns: []string{"bench", "8 (128B dict)", "16 (256B dict)", "32 (512B dict)"},
		Note:    "paper: a 512-byte dictionary already yields ~15% code reduction on average",
	}
	names := c.Names()
	ratios := make([][3]float64, len(names))
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		row := []string{name}
		for j, n := range fig8Sizes {
			img, err := c.Image(name, core.Options{Scheme: codeword.OneByte, MaxEntries: n, MaxEntryLen: 4})
			if err != nil {
				return nil, err
			}
			row = append(row, ratioStr(img.Ratio()))
			ratios[i][j] = img.Ratio()
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	var sum [3]float64
	for _, r := range ratios {
		for j, v := range r {
			sum[j] += v
		}
	}
	n := float64(len(names))
	t.AddRow("mean", ratioStr(sum[0]/n), ratioStr(sum[1]/n), ratioStr(sum[2]/n))
	return t, nil
}

// Fig9 decomposes the compressed program.
func Fig9(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "fig9",
		Title:   "Composition of compressed program (baseline, 8192 codewords, entries ≤ 4)",
		Columns: []string{"bench", "uncompressed", "cw index bytes", "cw escape bytes", "dictionary"},
		Note: "paper: with 8192 codewords ~40% of the compressed program is codeword " +
			"bytes, half of which are escape bytes",
	}
	names := c.Names()
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		img, err := c.Image(name, baselineOpts())
		if err != nil {
			return nil, err
		}
		total := float64(img.CompressedBytes())
		esc := float64(img.Stats.EscapeBits) / 8
		idx := float64(img.Stats.CodewordBits-img.Stats.EscapeBits) / 8
		raw := float64(img.Stats.RawBits) / 8
		dict := float64(img.DictionaryBytes)
		return []string{name, pct(raw / total), pct(idx / total), pct(esc / total), pct(dict / total)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Fig11 compares the nibble-aligned scheme against LZW.
func Fig11(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "fig11",
		Title:   "Nibble-aligned compression vs Unix Compress (LZW 9–16 bit)",
		Columns: []string{"bench", "nibble ratio", "lzw ratio", "gap"},
		Note: "paper: nibble-aligned achieves 30–50% reduction and stays within ~5 " +
			"percentage points of Compress on every benchmark",
	}
	names := c.Names()
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		img, err := c.Image(name, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
		if err != nil {
			return nil, err
		}
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		sp := comparatorSpan(c, "lzw", name)
		lr := lzw.RatioRecorded(p.TextBytes(), c.Recorder())
		sp.End()
		return []string{name, ratioStr(img.Ratio()), ratioStr(lr),
			fmt.Sprintf("%+.1fpp", 100*(img.Ratio()-lr))}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Table3 reports prologue/epilogue shares.
func Table3(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "table3",
		Title:   "Prologue and epilogue code in benchmarks",
		Columns: []string{"bench", "prologue", "epilogue", "combined"},
		Note: "paper: combined ~12% of program size; the stand-ins run a few points " +
			"lower because generated functions are larger than SPEC's average",
	}
	names := c.Names()
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		pe := profile.AnalyzePrologueEpilogue(p)
		return []string{name, pct(pe.PrologueFrac()), pct(pe.EpilogueFrac()),
			pct(pe.PrologueFrac() + pe.EpilogueFrac())}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ExtBaselines compares every registered codec against the Thumb model:
// one ratio column per registry entry in method-byte order, so a newly
// registered codec appears in the table automatically.
func ExtBaselines(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "baselines",
		Title:   "Compression ratio by method (dictionary schemes vs related work)",
		Columns: append(append([]string{"bench"}, codec.Names()...), "thumb16"),
		Note: "expected: nibble < baseline < liao ≈ thumb16 ≈ ccrp; Liao suffers " +
			"because single instructions cannot profit from 32-bit codewords (§2.4); " +
			"thumb16 is the §2.2 fixed-16-bit re-encoding model (optimistic for Thumb)",
	}
	names := c.Names()
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, cd := range codec.Codecs() {
			var img codec.Image
			if sc, ok := cd.(codec.Schemed); ok {
				// Dictionary schemes go through the memoizing corpus cache.
				img, err = c.Image(name, core.Options{Scheme: sc.Scheme(), MaxEntryLen: 4})
			} else {
				sp := comparatorSpan(c, cd.Name(), name)
				img, err = cd.Compress(p, codec.Options{Stats: c.Recorder()})
				sp.End()
			}
			if err != nil {
				return nil, err
			}
			row = append(row, ratioStr(img.Ratio()))
		}
		return append(row, ratioStr(thumb.Analyze(p).Ratio())), nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// icacheBenchmarks keeps the cache experiment fast while covering small,
// medium and large programs.
var icacheBenchmarks = []string{"compress", "go", "gcc"}

// ExtICache compares I-cache miss rates of original vs compressed
// execution across cache sizes.
func ExtICache(c *Corpus) (*Table, error) {
	sizes := []int{512, 1024, 2048, 4096, 8192}
	t := &Table{
		ID:    "icache",
		Title: "I-cache miss rate (direct-mapped, 32B lines): original vs nibble-compressed",
		Note: "denser code touches fewer lines, so the compressed image should miss " +
			"less at every size (Chen97a direction; dictionary assumed on-chip)",
	}
	t.Columns = []string{"bench"}
	for _, s := range sizes {
		t.Columns = append(t.Columns, fmt.Sprintf("orig@%d", s), fmt.Sprintf("comp@%d", s))
	}
	// One work item per (benchmark, cache size): the 2·|sizes| simulations
	// per benchmark dominate this runner's cost.
	type cell struct{ orig, comp string }
	cells := make([]cell, len(icacheBenchmarks)*len(sizes))
	err := c.each(len(cells), func(k int) error {
		name, s := icacheBenchmarks[k/len(sizes)], sizes[k%len(sizes)]
		p, err := c.Program(name)
		if err != nil {
			return err
		}
		img, err := c.Image(name, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
		if err != nil {
			return err
		}
		icache := cache.Config{SizeBytes: s, LineBytes: 32, Assoc: 1}
		ncpu, err := newNative(p)
		if err != nil {
			return err
		}
		nr, err := measure(c, ncpu, icache)
		if err != nil {
			return err
		}
		ccpu, err := core.NewMachine(img)
		if err != nil {
			return err
		}
		cr, err := measure(c, ccpu, icache)
		if err != nil {
			return err
		}
		cells[k] = cell{pct(nr.MissRate()), pct(cr.MissRate())}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range icacheBenchmarks {
		row := []string{name}
		for _, cl := range cells[i*len(sizes) : (i+1)*len(sizes)] {
			row = append(row, cl.orig, cl.comp)
		}
		t.AddRow(row...)
	}
	return t, nil
}

// ExtPenalty measures the execution-side cost of compression.
func ExtPenalty(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "penalty",
		Title:   "Execution on the compressed fetch path (nibble scheme)",
		Columns: []string{"bench", "steps orig", "steps comp", "extra", "fetch-bytes orig", "fetch-bytes comp", "traffic"},
		Note: "outputs are verified identical; extra steps come only from far-branch " +
			"stubs, and fetch traffic shows the density win at the memory interface",
	}
	names := []string{"compress", "li", "go", "perl"}
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		img, err := c.Image(name, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
		if err != nil {
			return nil, err
		}
		sp := runSpan(c)
		orig, comp, err := core.RunBoth(p, img, 200_000_000)
		sp.End()
		if err != nil {
			return nil, err
		}
		return []string{name,
			fmt.Sprint(orig.Stats.Steps), fmt.Sprint(comp.Stats.Steps),
			fmt.Sprintf("%+d", comp.Stats.Steps-orig.Stats.Steps),
			fmt.Sprint(orig.Stats.FetchedBytes), fmt.Sprint(comp.Stats.FetchedBytes),
			pct(float64(comp.Stats.FetchedBytes) / float64(orig.Stats.FetchedBytes))}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AblationSelection compares the greedy policy against static ordering.
func AblationSelection(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "ablation-selection",
		Title:   "Dictionary selection policy: indexed greedy vs reference greedy vs static order (baseline scheme)",
		Columns: []string{"bench", "greedy", "reference", "static", "delta"},
		Note: "greedy's savings re-evaluation should never lose to a one-shot ranking; " +
			"the indexed and reference greedy builders must agree to the byte",
	}
	names := c.Names()
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		g, err := c.Image(name, baselineOpts())
		if err != nil {
			return nil, err
		}
		ropt := baselineOpts()
		ropt.Strategy = dictionary.GreedyReference
		r, err := c.Image(name, ropt)
		if err != nil {
			return nil, err
		}
		sopt := baselineOpts()
		sopt.Strategy = dictionary.StaticOrder
		s, err := c.Image(name, sopt)
		if err != nil {
			return nil, err
		}
		return []string{name, ratioStr(g.Ratio()), ratioStr(r.Ratio()), ratioStr(s.Ratio()),
			fmt.Sprintf("%+.1fpp", 100*(g.Ratio()-s.Ratio()))}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// AblationAlignment estimates the cost of padding branch targets to word
// alignment instead of reinterpreting offset fields in units (§3.2.2's
// rejected alternative).
func AblationAlignment(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "ablation-alignment",
		Title:   "Unit-granular branch offsets vs padding targets to 32-bit alignment (nibble scheme)",
		Columns: []string{"bench", "unit ratio", "padded ratio", "cost"},
		Note: "padding every branch target back to word alignment surrenders part " +
			"of the nibble scheme's gain — the paper's reason for modifying the control unit",
	}
	names := c.Names()
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		img, err := c.Image(name, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
		if err != nil {
			return nil, err
		}
		padded, err := paddedSize(p, img)
		if err != nil {
			return nil, err
		}
		pr := float64(padded+img.DictionaryBytes) / float64(img.OriginalBytes)
		return []string{name, ratioStr(img.Ratio()), ratioStr(pr),
			fmt.Sprintf("%+.1fpp", 100*(pr-img.Ratio()))}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// paddedSize recomputes the stream size with every branch-target item
// aligned to a 32-bit boundary.
func paddedSize(p *program.Program, img *core.Image) (int, error) {
	an, err := program.Analyze(p)
	if err != nil {
		return 0, err
	}
	targets := make([]bool, len(p.Text))
	for _, t := range an.Target {
		if t >= 0 {
			targets[t] = true
		}
	}
	jts, err := p.JumpTableTargets()
	if err != nil {
		return 0, err
	}
	for _, t := range jts {
		targets[t] = true
	}
	unitsPerWord := 32 / img.Scheme.UnitBits()
	cursor := 0
	for i, m := range img.Marks {
		size := img.Units - int(m.Unit)
		if i+1 < len(img.Marks) {
			size = int(img.Marks[i+1].Unit - m.Unit)
		}
		if targets[int(m.Orig)] && cursor%unitsPerWord != 0 {
			cursor += unitsPerWord - cursor%unitsPerWord
		}
		cursor += size
	}
	return (cursor*img.Scheme.UnitBits() + 7) / 8, nil
}

// Ratio re-exports an image ratio for benchmarks that need a single
// headline number.
func Ratio(c *Corpus, name string, opt core.Options) (float64, error) {
	img, err := c.Image(name, opt)
	if err != nil {
		return 0, err
	}
	return img.Ratio(), nil
}
