package codedensity

// One benchmark per paper table/figure (the harness required by the
// reproduction), plus performance microbenchmarks of the library itself.
// Experiment benchmarks re-run the full measurement each iteration over a
// forked corpus (programs shared, compression redone), so reported times
// reflect real work.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/asm"
	"repro/internal/bench"
	"repro/internal/cache"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/guestprof"
	"repro/internal/huffman"
	"repro/internal/lzw"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/synth"
)

var (
	benchCorpus = bench.NewCorpus()
	warmOnce    sync.Once
	benchSink   interface{}
)

func warm(b *testing.B) {
	b.Helper()
	warmOnce.Do(func() {
		for _, n := range benchCorpus.Names() {
			if _, err := benchCorpus.Program(n); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchExperiment(b *testing.B, id string) {
	warm(b)
	r, ok := bench.Find(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := r.Run(benchCorpus.Fork())
		if err != nil {
			b.Fatal(err)
		}
		benchSink = tab
	}
}

// Paper evaluation: one bench per table and figure.

func BenchmarkFig1EncodingRedundancy(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkTable1BranchOffsets(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFig4EntryLength(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFig5CodewordCount(b *testing.B)      { benchExperiment(b, "fig5") }
func BenchmarkTable2MaxCodewords(b *testing.B)     { benchExperiment(b, "table2") }
func BenchmarkFig6DictComposition(b *testing.B)    { benchExperiment(b, "fig6") }
func BenchmarkFig7SavingsByLength(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8SmallDictionaries(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9Composition(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig11NibbleVsCompress(b *testing.B)  { benchExperiment(b, "fig11") }
func BenchmarkTable3PrologueEpilogue(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkExtBaselines(b *testing.B)           { benchExperiment(b, "baselines") }
func BenchmarkExtICache(b *testing.B)              { benchExperiment(b, "icache") }
func BenchmarkExtDecodePenalty(b *testing.B)       { benchExperiment(b, "penalty") }
func BenchmarkAblationSelection(b *testing.B)      { benchExperiment(b, "ablation-selection") }
func BenchmarkAblationAlignment(b *testing.B)      { benchExperiment(b, "ablation-alignment") }
func BenchmarkExtStandardize(b *testing.B)         { benchExperiment(b, "standardize") }
func BenchmarkExtDictPlacement(b *testing.B)       { benchExperiment(b, "dictplace") }
func BenchmarkExtCycles(b *testing.B)              { benchExperiment(b, "cycles") }
func BenchmarkExtProfiled(b *testing.B)            { benchExperiment(b, "profiled") }
func BenchmarkExtRegalloc(b *testing.B)            { benchExperiment(b, "regalloc") }
func BenchmarkExtRefill(b *testing.B)              { benchExperiment(b, "refill") }
func BenchmarkExtSharedDictionary(b *testing.B)    { benchExperiment(b, "shared") }
func BenchmarkExtCrossover(b *testing.B)           { benchExperiment(b, "crossover") }
func BenchmarkExtScaling(b *testing.B)             { benchExperiment(b, "scaling") }

// Library microbenchmarks.

func benchProgram(b *testing.B, name string) *Program {
	b.Helper()
	warm(b)
	p, err := benchCorpus.Program(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkGenerateBenchmark(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := synth.Generate("li")
		if err != nil {
			b.Fatal(err)
		}
		benchSink = p
	}
}

func benchCompress(b *testing.B, name string, scheme Scheme) {
	p := benchProgram(b, name)
	b.SetBytes(int64(p.SizeBytes()))
	b.ResetTimer()
	var last *Image
	for i := 0; i < b.N; i++ {
		img, err := core.Compress(p, Options{Scheme: scheme})
		if err != nil {
			b.Fatal(err)
		}
		last = img
	}
	b.ReportMetric(last.Ratio(), "ratio")
}

// dictSizes are the small/medium/full synth-benchmark sizes the
// BENCH_dictionary.json trajectory tracks (see `make bench-json`).
var dictSizes = []struct{ size, bench string }{
	{"small", "compress"}, // ~3.6k words
	{"medium", "go"},      // ~16k words
	{"full", "gcc"},       // ~42k words, the largest synth benchmark
}

// BenchmarkDictionaryBuild times the greedy analyzer alone — the paper's
// §3.1 hot path — for both the indexed builder and the reference
// implementation, at three corpus sizes.
func BenchmarkDictionaryBuild(b *testing.B) {
	impls := []struct {
		name  string
		strat dictionary.Strategy
	}{
		{"indexed", dictionary.Greedy},
		{"reference", dictionary.GreedyReference},
	}
	for _, sz := range dictSizes {
		for _, im := range impls {
			b.Run(sz.size+"/"+im.name, func(b *testing.B) {
				p := benchProgram(b, sz.bench)
				an, err := program.Analyze(p)
				if err != nil {
					b.Fatal(err)
				}
				rec := stats.New()
				cfg := dictionary.Config{
					MaxEntries:        Baseline.MaxEntries(),
					MaxEntryLen:       4,
					CodewordBits:      Baseline.CodewordBits,
					EntryOverheadBits: codeword.EntryOverheadBits,
					Compressible:      an.Compressible,
					Leader:            an.Leader,
					Strategy:          im.strat,
					Stats:             rec,
				}
				b.SetBytes(int64(4 * len(p.Text)))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r, err := dictionary.Build(p.Text, cfg)
					if err != nil {
						b.Fatal(err)
					}
					benchSink = r
				}
				b.StopTimer()
				reportHist(b, rec, "dict.selection_bits", "selbits")
			})
		}
	}
}

// BenchmarkCompressSweep times the full pipeline at the same three sizes,
// so the trajectory records how much of core.Compress the builder is.
func BenchmarkCompressSweep(b *testing.B) {
	for _, sz := range dictSizes {
		b.Run(sz.size, func(b *testing.B) {
			p := benchProgram(b, sz.bench)
			b.SetBytes(int64(p.SizeBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				img, err := core.Compress(p, Options{Scheme: Baseline})
				if err != nil {
					b.Fatal(err)
				}
				benchSink = img
			}
		})
	}
}

// BenchmarkSharedDictionary times the greedy analyzer at fleet size: one
// ROM dictionary over all eight corpus programs (~165k words), an index
// far larger than the per-core caches.
func BenchmarkSharedDictionary(b *testing.B) {
	var progs []*Program
	words := 0
	for _, name := range benchCorpus.Names() {
		p := benchProgram(b, name)
		progs = append(progs, p)
		words += len(p.Text)
	}
	opt := Options{Scheme: Baseline, MaxEntryLen: 4}
	b.SetBytes(int64(4 * words))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entries, err := core.BuildSharedDictionary(progs, opt)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = entries
	}
}

func BenchmarkCompressBaselineGcc(b *testing.B) { benchCompress(b, "gcc", Baseline) }
func BenchmarkCompressNibbleGcc(b *testing.B)   { benchCompress(b, "gcc", Nibble) }
func BenchmarkCompressNibbleCompress(b *testing.B) {
	benchCompress(b, "compress", Nibble)
}

func BenchmarkDecompress(b *testing.B) {
	p := benchProgram(b, "go")
	img, err := core.Compress(p, Options{Scheme: Nibble})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(img.StreamBytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := img.Decompress()
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

func BenchmarkVerify(b *testing.B) {
	p := benchProgram(b, "go")
	img, err := core.Compress(p, Options{Scheme: Nibble})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Verify(p, img); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpenImage is the objfile read layer: opening gcc's nibble
// frame from memory, the open half of a cold start.
func BenchmarkOpenImage(b *testing.B) {
	p := benchProgram(b, "gcc")
	img, err := core.Compress(p, Options{Scheme: Nibble})
	if err != nil {
		b.Fatal(err)
	}
	var frame bytes.Buffer
	if err := WriteImage(&frame, img); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(frame.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := ReadImage(bytes.NewReader(frame.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = got
	}
}

// benchRepeatRuns drives repeated Runs over one machine via CPU.Reset —
// the steady-state serving shape: construct (and predecode) once, then
// execute per request. The warmup run before the timer pays the lazy
// predecode build and the memory snapshot, so the timed region measures
// pure execution with zero construction allocations.
func benchRepeatRuns(b *testing.B, cpu *machine.CPU) int64 {
	b.Helper()
	if _, err := cpu.Run(200_000_000); err != nil {
		b.Fatal(err)
	}
	steps := cpu.Stats.Steps
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cpu.Reset(); err != nil {
			b.Fatal(err)
		}
		if _, err := cpu.Run(200_000_000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return steps
}

func BenchmarkNativeExecution(b *testing.B) {
	p := benchProgram(b, "perl")
	cpu, err := machine.NewForProgram(p)
	if err != nil {
		b.Fatal(err)
	}
	steps := benchRepeatRuns(b, cpu)
	b.ReportMetric(float64(steps), "steps/op")
}

func BenchmarkCompressedExecution(b *testing.B) {
	p := benchProgram(b, "perl")
	img, err := core.Compress(p, Options{Scheme: Nibble})
	if err != nil {
		b.Fatal(err)
	}
	// One untimed profiled run collects the expansion-length histogram:
	// the profiler's heat map counts each entry's expansions, and the
	// image gives each entry's length. The timed machine below stays bare.
	sym, err := img.GuestSymTab()
	if err != nil {
		b.Fatal(err)
	}
	probe, err := core.NewMachine(img)
	if err != nil {
		b.Fatal(err)
	}
	gp := guestprof.New(sym)
	gp.Attach(probe)
	if _, err := probe.Run(200_000_000); err != nil {
		b.Fatal(err)
	}
	rec := stats.New()
	for rank, n := range gp.Heat() {
		for ; n > 0; n-- {
			rec.ObserveValue("explen", int64(len(img.Entries[rank].Words)))
		}
	}
	cpu, err := core.NewMachine(img)
	if err != nil {
		b.Fatal(err)
	}
	steps := benchRepeatRuns(b, cpu)
	b.ReportMetric(float64(steps), "steps/op")
	reportHist(b, rec, "explen", "explen")
}

// profiledMachine builds a nibble machine in the always-on observability
// configuration: a Record counter sink and the call-tree guest profiler
// on the fetch journal, both of which leave the run on the fused loop.
func profiledMachine(b *testing.B, img *core.Image) *machine.CPU {
	b.Helper()
	sym, err := img.GuestSymTab()
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := core.NewMachine(img)
	if err != nil {
		b.Fatal(err)
	}
	cpu.Record = stats.New()
	guestprof.New(sym).Attach(cpu)
	return cpu
}

// BenchmarkSampledExecution is BenchmarkCompressedExecution with the
// call-tree guest profiler on the fetch journal — the always-on
// observability configuration (the name predates the one profiler; the
// ledger and baseline key on it). The run must stay on the fused fast path
// (faststeps/op equals steps/op). It is the layer's number on the ledger;
// the ratio CI holds to 1.10 is timed in BenchmarkExecutionRatios.
func BenchmarkSampledExecution(b *testing.B) {
	p := benchProgram(b, "perl")
	img, err := core.Compress(p, Options{Scheme: Nibble})
	if err != nil {
		b.Fatal(err)
	}
	cpu := profiledMachine(b, img)
	steps := benchRepeatRuns(b, cpu)
	if cpu.Fast.Steps != cpu.Stats.Steps {
		b.Fatalf("profiling knocked the run off the fast path: %s", cpu.Fast.BailSummary())
	}
	b.ReportMetric(float64(steps), "steps/op")
	b.ReportMetric(float64(cpu.Fast.Steps), "faststeps/op")
}

// BenchmarkExecutionRatios times the two execution ceilings' ratios from
// paired runs. Each iteration Resets and Runs perl once on each of three
// machines — native, nibble, and nibble with the profiler of
// BenchmarkSampledExecution — rotating which goes first, and times each
// with its own clock pair. compressed_vs_native_ratio is the nibble time
// over the native time and sampled_profiling_overhead_ratio the profiled
// time over the nibble time, both summed over the sample's iterations.
// Each run of a ratio sits microseconds from its counterpart, so host
// drift slows both sides alike instead of landing in the quotient, as it
// does when each side is a separate benchmark that -count runs in turn.
// ns/op covers all three runs.
func BenchmarkExecutionRatios(b *testing.B) {
	p := benchProgram(b, "perl")
	img, err := core.Compress(p, Options{Scheme: Nibble})
	if err != nil {
		b.Fatal(err)
	}
	native, err := machine.NewForProgram(p)
	if err != nil {
		b.Fatal(err)
	}
	nibble, err := core.NewMachine(img)
	if err != nil {
		b.Fatal(err)
	}
	profiled := profiledMachine(b, img)
	cpus := [3]*machine.CPU{native, nibble, profiled}
	for _, cpu := range cpus {
		if _, err := cpu.Run(200_000_000); err != nil {
			b.Fatal(err)
		}
	}
	var total [3]time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range cpus {
			j := (i + k) % len(cpus)
			start := time.Now()
			if err := cpus[j].Reset(); err != nil {
				b.Fatal(err)
			}
			if _, err := cpus[j].Run(200_000_000); err != nil {
				b.Fatal(err)
			}
			total[j] += time.Since(start)
		}
	}
	b.StopTimer()
	for _, cpu := range cpus[1:] {
		if cpu.Fast.Steps != cpu.Stats.Steps {
			b.Fatalf("a nibble run left the fast path: %s", cpu.Fast.BailSummary())
		}
		if cpu.Stats.Steps != native.Stats.Steps {
			b.Fatalf("steps %d != native %d", cpu.Stats.Steps, native.Stats.Steps)
		}
	}
	b.ReportMetric(float64(total[1])/float64(total[0]), "compressed_vs_native_ratio")
	b.ReportMetric(float64(total[2])/float64(total[1]), "sampled_profiling_overhead_ratio")
}

// BenchmarkHookedExecution is the instrumented Step path:
// BenchmarkCompressedExecution with a no-op TraceStep hook, which sends
// every instruction through Step (fetch, resolve, one-step run of the
// shared dispatch). It fails unless the fused loop ran none of them, so
// the ledger keeps a number for the path every hooked consumer — tracing
// and the reference tests — pays.
func BenchmarkHookedExecution(b *testing.B) {
	p := benchProgram(b, "perl")
	img, err := core.Compress(p, Options{Scheme: Nibble})
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := core.NewMachine(img)
	if err != nil {
		b.Fatal(err)
	}
	cpu.TraceStep = func(machine.StepInfo) {}
	steps := benchRepeatRuns(b, cpu)
	if cpu.Fast.Steps != 0 {
		b.Fatalf("a TraceStep run reached the fused loop: %s", cpu.Fast.BailSummary())
	}
	b.ReportMetric(float64(steps), "steps/op")
}

// BenchmarkICacheExecution is the I-cache simulation layer:
// BenchmarkCompressedExecution with a fresh 8 KiB direct-mapped cache of
// 32-byte lines on the TraceFetch hook for every Reset+Run. The fetch
// journal keeps the run on the fused fast path (it fails otherwise), so
// the delta to BenchmarkCompressedExecution is the cost of journaling and
// of the cache model itself.
func BenchmarkICacheExecution(b *testing.B) {
	p := benchProgram(b, "perl")
	img, err := core.Compress(p, Options{Scheme: Nibble})
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := core.NewMachine(img)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}
	var misses int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ic, err := cache.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cpu.TraceFetch = ic.Access
		if err := cpu.Reset(); err != nil {
			b.Fatal(err)
		}
		if _, err := cpu.Run(200_000_000); err != nil {
			b.Fatal(err)
		}
		if cpu.Fast.Steps != cpu.Stats.Steps {
			b.Fatalf("the cache hook knocked the run off the fast path: %s", cpu.Fast.BailSummary())
		}
		misses = ic.Stats.Misses
	}
	b.StopTimer()
	b.ReportMetric(float64(cpu.Stats.Steps), "steps/op")
	b.ReportMetric(float64(misses), "misses/op")
}

// BenchmarkICacheAccess is the cache model alone: perl's nibble fetch
// stream, recorded once from TraceFetch outside the timer, replayed into a
// fresh 8 KiB direct-mapped cache of 32-byte lines per iteration. ns/access
// is the cost of one Access call.
func BenchmarkICacheAccess(b *testing.B) {
	p := benchProgram(b, "perl")
	img, err := core.Compress(p, Options{Scheme: Nibble})
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := core.NewMachine(img)
	if err != nil {
		b.Fatal(err)
	}
	type fetch struct {
		addr   uint32
		nbytes int
	}
	var stream []fetch
	cpu.TraceFetch = func(addr uint32, nbytes int) { stream = append(stream, fetch{addr, nbytes}) }
	if _, err := cpu.Run(200_000_000); err != nil {
		b.Fatal(err)
	}
	cfg := cache.Config{SizeBytes: 8 << 10, LineBytes: 32, Assoc: 1}
	var misses int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic, err := cache.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range stream {
			ic.Access(f.addr, f.nbytes)
		}
		misses = ic.Stats.Misses
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(stream)), "ns/access")
	b.ReportMetric(float64(misses), "misses/op")
}

// BenchmarkReset is the Reset layer of the serving shape: each iteration
// runs perl once, untimed, then times the CPU.Reset that follows, so ns/op
// is the cost of restoring what one request dirtied. B/op and allocs/op
// cover the whole iteration. The execution benchmarks above time the same
// Reset together with its Run.
func BenchmarkReset(b *testing.B) {
	p := benchProgram(b, "perl")
	img, err := core.Compress(p, Options{Scheme: Nibble})
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []struct {
		name  string
		build func() (*machine.CPU, error)
	}{
		{"native", func() (*machine.CPU, error) { return machine.NewForProgram(p) }},
		{"nibble", func() (*machine.CPU, error) { return core.NewMachine(img) }},
	} {
		b.Run(m.name, func(b *testing.B) {
			cpu, err := m.build()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var reset time.Duration
			for i := 0; i < b.N; i++ {
				if _, err := cpu.Run(200_000_000); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if err := cpu.Reset(); err != nil {
					b.Fatal(err)
				}
				reset += time.Since(start)
			}
			b.ReportMetric(float64(reset.Nanoseconds())/float64(b.N), "ns/op")
		})
	}
}

// reportHist reports a recorded histogram's quantiles as custom benchmark
// units, so `make bench-json` captures distribution shape (not just
// means) in the BENCH_*.json trajectory.
func reportHist(b *testing.B, rec *stats.Recorder, key, unit string) {
	b.Helper()
	h := rec.Snapshot().Hist(key)
	if h.Count == 0 {
		return
	}
	b.ReportMetric(float64(h.P50), unit+"-p50")
	b.ReportMetric(float64(h.P90), unit+"-p90")
	b.ReportMetric(float64(h.P99), unit+"-p99")
}

func BenchmarkLZWCompress(b *testing.B) {
	p := benchProgram(b, "go")
	text := p.TextBytes()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = lzw.Compress(text)
	}
}

// BenchmarkLZWDecompress decodes the stream BenchmarkLZWCompress
// produces, bounded by the text's length as the codec's Verify bounds it.
func BenchmarkLZWDecompress(b *testing.B) {
	p := benchProgram(b, "go")
	text := p.TextBytes()
	stream := lzw.Compress(text)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := lzw.Decompress(stream, len(text))
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

func BenchmarkCCRPHuffman(b *testing.B) {
	p := benchProgram(b, "go")
	b.SetBytes(int64(p.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := huffman.BuildCCRPImage(p, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = img
	}
}

func BenchmarkApplyFixedDictionary(b *testing.B) {
	p := benchProgram(b, "li")
	q := benchProgram(b, "compress")
	shared, err := core.BuildSharedDictionary(
		[]*Program{p, q}, Options{Scheme: Baseline, MaxEntryLen: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(p.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		img, err := core.CompressFixed(p, shared, Options{Scheme: Baseline})
		if err != nil {
			b.Fatal(err)
		}
		benchSink = img
	}
}

func BenchmarkAssembleInstruction(b *testing.B) {
	srcs := []string{"lwz r9,4(r28)", "addi r0,r11,1", "ble cr1,.+0x1c8", "rlwinm r4,r5,3,5,28"}
	for i := 0; i < b.N; i++ {
		w, err := asm.Parse(srcs[i%len(srcs)])
		if err != nil {
			b.Fatal(err)
		}
		benchSink = w
	}
}

func BenchmarkDisassembleInstruction(b *testing.B) {
	p := benchProgram(b, "compress")
	for i := 0; i < b.N; i++ {
		benchSink = asm.Disassemble(p.Text[i%len(p.Text)])
	}
}

func BenchmarkCCRPExecution(b *testing.B) {
	p := benchProgram(b, "compress")
	img, err := huffman.BuildCCRPImage(p, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu, err := img.NewMachine()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := cpu.Run(200_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamDecodeNibble(b *testing.B) {
	p := benchProgram(b, "go")
	img, err := core.Compress(p, Options{Scheme: codeword.Nibble})
	if err != nil {
		b.Fatal(err)
	}
	rdr := codeword.NewReader(img.Scheme, img.Stream, img.Units)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for u := 0; u < img.Units; {
			it, err := rdr.At(u)
			if err != nil {
				b.Fatal(err)
			}
			u += it.Units
		}
	}
}
