package bench

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/huffman"
	"repro/internal/machine"
	"repro/internal/pipeline"
	"repro/internal/program"
	"repro/internal/synth"
	"repro/internal/trace"
)

// machineCPU abbreviates the simulator type in the runners below.
type machineCPU = machine.CPU

func newNative(p *program.Program) (*machineCPU, error) { return machine.NewForProgram(p) }

// runSpan opens the span of one guest execution, so a trace attributes
// its time to the machine layer rather than to the experiment around it.
func runSpan(c *Corpus) *trace.Span { return c.Span().Child("machine.run") }

// runGuest runs a machine to completion in a machine.run span.
func runGuest(c *Corpus, cpu *machineCPU) error {
	sp := runSpan(c)
	defer sp.End()
	_, err := cpu.Run(200_000_000)
	return err
}

// measure runs a fresh machine to completion under pipeline.Measure with
// an I-cache of the given shape, counting into the view's recorder.
func measure(c *Corpus, cpu *machineCPU, icache cache.Config) (pipeline.Report, error) {
	cpu.Record = c.Recorder()
	sp := runSpan(c)
	defer sp.End()
	return pipeline.Measure(cpu, icache, 200_000_000)
}

// The future-work extensions from the paper's §5 and §3.3, registered
// alongside the evaluation experiments.

func init() {
	Experiments = append(Experiments,
		Runner{ID: "standardize", Title: "Ext. D: standardized prologues/epilogues (§5 compiler cooperation)", Run: ExtStandardize},
		Runner{ID: "dictplace", Title: "Ext. E: on-chip vs memory-resident dictionary (§3.3)", Run: ExtDictPlacement},
		Runner{ID: "cycles", Title: "Ext. F: end-to-end cycle model (decode penalty + cache misses)", Run: ExtCycles},
		Runner{ID: "profiled", Title: "Ext. G: profile-guided codeword assignment (dynamic ranking)", Run: ExtProfiled},
		Runner{ID: "regalloc", Title: "Ext. H: register-allocation consistency (§5's other proposal, inverted)", Run: ExtRegalloc},
		Runner{ID: "refill", Title: "Ext. I: dynamic refill traffic — dictionary scheme vs executable CCRP", Run: ExtRefill},
		Runner{ID: "shared", Title: "Ext. J: per-program vs fleet-wide shared ROM dictionary", Run: ExtShared},
		Runner{ID: "crossover", Title: "Ext. K: speed crossover — where the decode penalty pays for itself", Run: ExtCrossover},
		Runner{ID: "scaling", Title: "Ext. L: ratio stability and dictionary growth across program scales", Run: ExtScaling},
	)
}

// ExtScaling compresses two benchmarks at several size scales and shows
// that compression ratios are roughly scale-invariant while the maximum
// useful dictionary grows with program size — the mechanism behind Table
// 2's spread (and why our scaled-down corpus reproduces its ordering but
// not its absolute counts). The 1x point is the corpus's own program and
// its memoized baseline image (synth.Generate is GenerateScaled at scale
// 1); every other scale is generated and compressed here.
func ExtScaling(c *Corpus) (*Table, error) {
	scales := []float64{0.5, 1, 2, 4}
	names := []string{"li", "gcc"}
	t := &Table{
		ID:      "scaling",
		Title:   "Ratio and max codewords vs program scale (baseline scheme, entries ≤ 4)",
		Columns: []string{"bench", "scale", "insns", "ratio", "max codewords"},
		Note: "ratios hold within a few points across an 8x size range; codeword " +
			"counts grow toward the paper's Table 2 magnitudes as programs approach " +
			"real SPEC sizes",
	}
	// One work item per (benchmark, scale): each point off 1x generates and
	// compresses a whole program, so points are the natural parallel unit.
	err := rowsInOrder(c, t, len(names)*len(scales), func(k int) ([]string, error) {
		name, s := names[k/len(scales)], scales[k%len(scales)]
		opt := core.Options{Scheme: codeword.Baseline, MaxEntryLen: 4}
		p, img, err := scaledImage(c, name, s, opt)
		if err != nil {
			return nil, err
		}
		return []string{name, fmt.Sprintf("%gx", s), fmt.Sprint(len(p.Text)),
			ratioStr(img.Ratio()), fmt.Sprint(len(img.Entries))}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// scaledImage returns benchmark name at scale s and its image under opt:
// the corpus's program and cached image at scale 1, a fresh generation and
// compression at any other scale.
func scaledImage(c *Corpus, name string, s float64, opt core.Options) (*program.Program, *core.Image, error) {
	if s == 1 {
		p, err := c.Program(name)
		if err != nil {
			return nil, nil, err
		}
		img, err := c.Image(name, opt)
		return p, img, err
	}
	sp := c.Span().Child("synth.generate_scaled").Set("bench", name).Set("scale", fmt.Sprintf("%gx", s))
	p, err := synth.GenerateScaled(name, s)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	opt.Stats = c.Recorder()
	img, err := core.Compress(p, opt)
	return p, img, err
}

// ExtCrossover sweeps the memory miss penalty under the pipeline timing
// model and reports the compressed/native speedup at each point. With
// free memory the variable-length decoder can only cost cycles; as memory
// slows down, the smaller footprint's miss savings dominate. The
// crossover is where the paper's "compression at the cost of execution
// speed" trade turns into a win.
func ExtCrossover(c *Corpus) (*Table, error) {
	penalties := []int64{0, 2, 5, 10, 20, 50}
	names := []string{"compress", "li", "go", "gcc"}
	t := &Table{
		ID:    "crossover",
		Title: "Speedup of nibble-compressed execution vs miss penalty (1KB I-cache, pipeline model)",
		Note: "speedup <1 means compression costs cycles (decode penalty), >1 means the " +
			"miss savings won; the crossover typically lands at single-digit penalties",
	}
	t.Columns = []string{"bench"}
	for _, mp := range penalties {
		t.Columns = append(t.Columns, fmt.Sprintf("miss=%d", mp))
	}
	// One work item per benchmark: one native and one compressed pipeline
	// simulation, priced at every penalty (the penalty changes no event
	// count, only what each miss costs).
	cells := make([]string, len(names)*len(penalties))
	err := c.each(len(names), func(k int) error {
		name := names[k]
		p, err := c.Program(name)
		if err != nil {
			return err
		}
		img, err := c.Image(name, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
		if err != nil {
			return err
		}
		icache := pipeline.DefaultConfig(0).ICache
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
		for j, mp := range penalties {
			cfg := pipeline.DefaultConfig(mp)
			cells[k*len(penalties)+j] = fmt.Sprintf("%.2fx", float64(nr.Cycles(cfg))/float64(cr.Cycles(cfg)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range names {
		t.AddRow(append([]string{name}, cells[i*len(penalties):(i+1)*len(penalties)]...)...)
	}
	return t, nil
}

// ExtShared compares per-program dictionaries against one dictionary built
// over the whole corpus and shared by every program (CompressFixed) — the
// multi-application embedded ROM deployment. Per-program dictionaries
// adapt better (the paper's §2.2 argument against fixed subsets, replayed
// against its own method), but the shared dictionary is stored once.
func ExtShared(c *Corpus) (*Table, error) {
	opt := core.Options{Scheme: codeword.Baseline, MaxEntryLen: 4}
	names := c.Names()
	progs := make([]*program.Program, len(names))
	if err := c.each(len(names), func(i int) error {
		p, err := c.Program(names[i])
		progs[i] = p
		return err
	}); err != nil {
		return nil, err
	}
	traced := opt
	traced.Stats, traced.Trace = c.Recorder(), c.Span()
	shared, err := core.BuildSharedDictionary(progs, traced)
	if err != nil {
		return nil, err
	}
	sharedDictBytes := codeword.DictBytes(entryLensOf(shared))

	t := &Table{
		ID:      "shared",
		Title:   "Per-program vs shared dictionary (baseline scheme, entries ≤ 4)",
		Columns: []string{"bench", "own ratio", "shared stream ratio", "delta"},
		Note: fmt.Sprintf("shared dictionary: %d entries, %d bytes stored once for the fleet; "+
			"'shared stream ratio' counts each program's stream only — the fleet totals "+
			"below include the single dictionary", len(shared), sharedDictBytes),
	}
	type acc struct{ own, sharedStream, orig int }
	accs := make([]acc, len(names))
	err = rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		own, err := c.Image(name, opt)
		if err != nil {
			return nil, err
		}
		sh, err := core.CompressFixed(progs[i], shared, opt)
		if err != nil {
			return nil, err
		}
		if err := core.Verify(progs[i], sh); err != nil {
			return nil, fmt.Errorf("shared-dictionary image for %s fails verification: %w", name, err)
		}
		accs[i] = acc{own.CompressedBytes(), sh.StreamBytes, own.OriginalBytes}
		ownRatio := own.Ratio()
		shRatio := float64(sh.StreamBytes) / float64(sh.OriginalBytes)
		return []string{name, ratioStr(ownRatio), ratioStr(shRatio),
			fmt.Sprintf("%+.1fpp", 100*(shRatio-ownRatio))}, nil
	})
	if err != nil {
		return nil, err
	}
	var fleetOwn, fleetSharedStream, fleetOrig int
	for _, a := range accs {
		fleetOwn += a.own
		fleetSharedStream += a.sharedStream
		fleetOrig += a.orig
	}
	t.AddRow("fleet",
		ratioStr(float64(fleetOwn)/float64(fleetOrig)),
		ratioStr(float64(fleetSharedStream+sharedDictBytes)/float64(fleetOrig)),
		"incl. one dict")
	return t, nil
}

func entryLensOf(entries []dictionary.Entry) []int {
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = len(e.Words)
	}
	return out
}

// ExtRefill compares memory traffic of the three executable paths at the
// same I-cache (2KB, 32-byte lines, direct-mapped): the normal machine,
// the nibble dictionary machine (on-chip dictionary), and the CCRP machine,
// whose cache holds decompressed lines at their original addresses and
// whose misses refill Huffman-compressed lines.
func ExtRefill(c *Corpus) (*Table, error) {
	const (
		lineBytes  = 32
		cacheLines = 64
	)
	t := &Table{
		ID:      "refill",
		Title:   "Dynamic refill traffic at equal 2KB line buffers (bytes from memory)",
		Columns: []string{"bench", "original", "nibble dict", "ccrp", "dict vs orig", "ccrp vs orig"},
		Note: "the dictionary machine refills compressed lines AND skips dictionary " +
			"words entirely (on-chip expansion); CCRP refills Huffman-compressed " +
			"lines but touches every line the original touches",
	}
	// lineTraffic runs a machine under the I-cache and totals the bytes
	// its misses refill, refill(addr) per missed line. A CCRP fetch never
	// spans lines; a dictionary fetch may, but its misses cost a full line
	// whatever the address.
	lineTraffic := func(mk func() (*machineCPU, error), refill func(addr uint32) int64) (int64, error) {
		ic, err := cache.New(cache.Config{SizeBytes: cacheLines * lineBytes, LineBytes: lineBytes, Assoc: 1})
		if err != nil {
			return 0, err
		}
		cpu, err := mk()
		if err != nil {
			return 0, err
		}
		var traffic int64
		cpu.Record = c.Recorder()
		cpu.TraceFetch = func(addr uint32, nbytes int) {
			misses := ic.Stats.Misses
			ic.Access(addr, nbytes)
			traffic += (ic.Stats.Misses - misses) * refill(addr)
		}
		if err := runGuest(c, cpu); err != nil {
			return 0, err
		}
		ic.Report(c.Recorder())
		return traffic, nil
	}
	fullLine := func(uint32) int64 { return lineBytes }
	names := []string{"compress", "li", "go"}
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		orig, err := lineTraffic(func() (*machineCPU, error) { return newNative(p) }, fullLine)
		if err != nil {
			return nil, err
		}
		img, err := c.Image(name, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
		if err != nil {
			return nil, err
		}
		dict, err := lineTraffic(func() (*machineCPU, error) { return core.NewMachine(img) }, fullLine)
		if err != nil {
			return nil, err
		}
		cc, err := comparatorImage(c, "ccrp", name, p)
		if err != nil {
			return nil, err
		}
		cimg := cc.(*huffman.CCRPImage)
		ccrp, err := lineTraffic(cimg.NewMachine, cimg.RefillBytes)
		if err != nil {
			return nil, err
		}
		return []string{name, fmt.Sprint(orig), fmt.Sprint(dict), fmt.Sprint(ccrp),
			pct(float64(dict) / float64(orig)), pct(float64(ccrp) / float64(orig))}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ExtRegalloc demonstrates §5's register-allocation claim from the other
// side: regenerating each benchmark with a deterministically scrambled
// allocator (same semantics, per-function random register and stack-slot
// assignment) destroys cross-function template identity and compression
// suffers.
func ExtRegalloc(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "regalloc",
		Title:   "Register-allocation consistency: canonical vs scrambled allocator (nibble)",
		Columns: []string{"bench", "canonical", "scrambled", "cost", "distinct encodings"},
		Note: "§5: 'allocating registers so that common sequences of instructions use " +
			"the same registers' is worth several ratio points — shown here by breaking it",
	}
	names := []string{"compress", "li", "ijpeg", "go"}
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		img, err := c.Image(name, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
		if err != nil {
			return nil, err
		}
		prof, err := synth.ProfileFor(name)
		if err != nil {
			return nil, err
		}
		prof.ScrambleAlloc = true
		sp, err := synth.GenerateProfile(prof)
		if err != nil {
			return nil, err
		}
		simg, err := core.Compress(sp, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4, Stats: c.Recorder()})
		if err != nil {
			return nil, err
		}
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		distinct := func(q *program.Program) int {
			m := map[uint32]bool{}
			for _, w := range q.Text {
				m[w] = true
			}
			return len(m)
		}
		return []string{name, ratioStr(img.Ratio()), ratioStr(simg.Ratio()),
			fmt.Sprintf("%+.1fpp", 100*(simg.Ratio()-img.Ratio())),
			fmt.Sprintf("%d -> %d", distinct(p), distinct(sp))}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// collectProfile runs the original program once and counts how often each
// text word is fetched.
func collectProfile(c *Corpus, p *program.Program) ([]int64, error) {
	counts := make([]int64, len(p.Text))
	cpu, err := machine.NewForProgram(p)
	if err != nil {
		return nil, err
	}
	cpu.Record = c.Recorder()
	cpu.TraceFetch = func(addr uint32, n int) {
		idx := int(addr-p.TextBase) / 4
		if idx >= 0 && idx < len(counts) {
			counts[idx]++
		}
	}
	if err := runGuest(c, cpu); err != nil {
		return nil, err
	}
	return counts, nil
}

// ExtProfiled compares static frequency ranking against dynamic
// profile-guided codeword assignment under the nibble scheme: the hottest
// sequences get the 4-bit codewords, trading (at most) a sliver of static
// size for less run-time fetch traffic.
func ExtProfiled(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "profiled",
		Title:   "Profile-guided codeword ranking (nibble scheme)",
		Columns: []string{"bench", "static ratio", "profiled ratio", "fetch B static", "fetch B profiled", "traffic win"},
		Note: "ranking dictionary entries by dynamic fetch count instead of static use " +
			"count shifts the shortest codewords onto the hottest code paths",
	}
	names := []string{"compress", "li", "go", "perl"}
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		prof, err := collectProfile(c, p)
		if err != nil {
			return nil, err
		}
		static, err := c.Image(name, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
		if err != nil {
			return nil, err
		}
		dyn, err := core.Compress(p, core.Options{
			Scheme: codeword.Nibble, MaxEntryLen: 4, DynProfile: prof, Stats: c.Recorder(),
		})
		if err != nil {
			return nil, err
		}
		if err := core.Verify(p, dyn); err != nil {
			return nil, fmt.Errorf("profiled image fails verification: %w", err)
		}
		fetched := func(img *core.Image) (int64, error) {
			cpu, err := core.NewMachine(img)
			if err != nil {
				return 0, err
			}
			cpu.Record = c.Recorder()
			if err := runGuest(c, cpu); err != nil {
				return 0, err
			}
			return cpu.Stats.FetchedBytes, nil
		}
		fs, err := fetched(static)
		if err != nil {
			return nil, err
		}
		fd, err := fetched(dyn)
		if err != nil {
			return nil, err
		}
		return []string{name, ratioStr(static.Ratio()), ratioStr(dyn.Ratio()),
			fmt.Sprint(fs), fmt.Sprint(fd),
			fmt.Sprintf("%+.1f%%", 100*(float64(fd)/float64(fs)-1))}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ExtStandardize regenerates each benchmark with the §5 proposal — every
// function saves all nonvolatile registers with a fixed frame — and
// compares compressed sizes. The program grows, but identical prologues
// and epilogues collapse into single codewords.
func ExtStandardize(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "standardize",
		Title:   "Standardized full-save prologues (§5): size before/after, nibble scheme",
		Columns: []string{"bench", "insns", "std insns", "growth", "comp B", "std comp B", "net"},
		Note: "the paper predicts this 'space saving optimization would decrease code " +
			"size at the expense of execution time'; net < 0 means the compressed " +
			"standardized program is smaller than the compressed original",
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
		prof, err := synth.ProfileFor(name)
		if err != nil {
			return nil, err
		}
		prof.StandardizeSaves = true
		sp, err := synth.GenerateProfile(prof)
		if err != nil {
			return nil, err
		}
		simg, err := core.Compress(sp, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4, Stats: c.Recorder()})
		if err != nil {
			return nil, err
		}
		growth := float64(len(sp.Text))/float64(len(p.Text)) - 1
		net := simg.CompressedBytes() - img.CompressedBytes()
		return []string{name,
			fmt.Sprint(len(p.Text)), fmt.Sprint(len(sp.Text)), pct(growth),
			fmt.Sprint(img.CompressedBytes()), fmt.Sprint(simg.CompressedBytes()),
			fmt.Sprintf("%+d", net)}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ExtDictPlacement compares fetch traffic and miss rates with the
// dictionary on-chip (free expansions) vs resident in program memory. One
// fused run measures both: pipeline.Measure's cache sees the on-chip
// traffic, and core.DictInMemoryFetches replays the same run as the
// in-memory traffic into a second cache of the same shape.
func ExtDictPlacement(c *Corpus) (*Table, error) {
	const dictBase = 0x0080_0000
	icache := cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1}
	t := &Table{
		ID:      "dictplace",
		Title:   "Dictionary placement (nibble scheme): on-chip vs memory-resident",
		Columns: []string{"bench", "fetch B on-chip", "fetch B in-mem", "miss% on-chip", "miss% in-mem"},
		Note: "§3.3: a small dictionary can live in permanent on-chip memory; a large " +
			"one can be loaded from memory — at the cost of extra fetch traffic " +
			"(hot entries cache well, so the miss-rate gap stays small)",
	}
	names := []string{"compress", "li", "go"}
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		img, err := c.Image(name, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
		if err != nil {
			return nil, err
		}
		ic, err := cache.New(icache)
		if err != nil {
			return nil, err
		}
		cpu, err := core.NewMachine(img)
		if err != nil {
			return nil, err
		}
		var inMem int64
		cpu.TraceSlots = core.DictInMemoryFetches(img, dictBase, func(addr uint32, nbytes int) {
			inMem += int64(nbytes)
			ic.Access(addr, nbytes)
		})
		r, err := measure(c, cpu, icache)
		if err != nil {
			return nil, err
		}
		ic.Report(c.Recorder())
		return []string{name, fmt.Sprint(cpu.Stats.FetchedBytes), fmt.Sprint(inMem),
			pct(r.MissRate()), pct(ic.Stats.MissRate())}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// ExtCycles estimates end-to-end execution cycles for original vs
// compressed images under pipeline's timing model with no branch penalty
// (one cycle per instruction, one per dictionary-expanded instruction,
// twenty per I-cache miss), showing when compression wins on
// *performance*, not just size (the Chen97b argument from §1).
func ExtCycles(c *Corpus) (*Table, error) {
	cfg := pipeline.DefaultConfig(20)
	cfg.BranchPenalty = 0
	t := &Table{
		ID:    "cycles",
		Title: "Cycle model: 1 cycle/insn + 1 cycle/expansion + 20 cycles/miss (1KB I-cache)",
		Note: "with small caches the miss savings outweigh the decode penalty — " +
			"compression improves performance, not just size (§1's Chen97b point)",
	}
	t.Columns = []string{"bench", "orig cycles", "comp cycles", "speedup"}
	names := []string{"compress", "li", "go", "gcc"}
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
		cyclesOf := func(mk func() (*machineCPU, error)) (int64, error) {
			cpu, err := mk()
			if err != nil {
				return 0, err
			}
			r, err := measure(c, cpu, cfg.ICache)
			return r.Cycles(cfg), err
		}
		co, err := cyclesOf(func() (*machineCPU, error) { return newNative(p) })
		if err != nil {
			return nil, err
		}
		cc, err := cyclesOf(func() (*machineCPU, error) { return core.NewMachine(img) })
		if err != nil {
			return nil, err
		}
		return []string{name, fmt.Sprint(co), fmt.Sprint(cc), fmt.Sprintf("%.2fx", float64(co)/float64(cc))}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
