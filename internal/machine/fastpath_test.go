package machine

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/trace"
)

// epochRecorder collects every drained epoch's traffic so tests can check
// conservation against the CPU's own counters. It also verifies the
// touched list's contract: exactly the slots with traffic, each once.
type epochRecorder struct {
	epochs  int
	steps   int64
	fetches int64
	bad     string
}

func (e *epochRecorder) ObserveEpoch(pd *Predecode, tr []SlotTraffic, touched []int32) {
	e.epochs++
	seen := map[int32]bool{}
	for _, i := range touched {
		if seen[i] {
			e.bad = "duplicate touched index"
		}
		seen[i] = true
		if tr[i].Steps == 0 {
			e.bad = "touched slot without traffic"
		}
		e.steps += int64(tr[i].Steps)
		e.fetches += int64(tr[i].Fetches)
	}
	for i := range tr {
		if tr[i].Steps != 0 && !seen[int32(i)] {
			e.bad = "slot with traffic missing from touched"
		}
	}
}

func TestFastStatsCleanRun(t *testing.T) {
	// A program that runs start to exit on the fast path: full coverage,
	// exactly one bail (exit), nothing else.
	cpu, err := NewForProgram(parityProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(10000); err != nil {
		t.Fatal(err)
	}
	if cpu.Fast.Steps != cpu.Stats.Steps || cpu.Fast.Steps == 0 {
		t.Fatalf("fast steps %d, total %d", cpu.Fast.Steps, cpu.Stats.Steps)
	}
	if cov := cpu.Fast.Coverage(cpu.Stats.Steps); cov != 1.0 {
		t.Fatalf("coverage %v, want 1.0", cov)
	}
	want := FastStats{Steps: cpu.Fast.Steps}
	want.Bails[BailExit] = 1
	if cpu.Fast != want {
		t.Fatalf("FastStats %+v, want %+v", cpu.Fast, want)
	}
	if s := cpu.Fast.BailSummary(); s != "exit=1" {
		t.Fatalf("BailSummary %q", s)
	}
}

func TestBailReasonBudget(t *testing.T) {
	b := newSpinBuilder(t)
	cpu, err := NewForProgram(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(50); err == nil {
		t.Fatal("budget run did not error")
	}
	if cpu.Fast.Bails[BailBudget] != 1 || cpu.Fast.Steps != 50 {
		t.Fatalf("FastStats %+v", cpu.Fast)
	}
}

func TestBailReasonHookAttached(t *testing.T) {
	cpu, err := NewForProgram(parityProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	cpu.TraceStep = func(StepInfo) {}
	if _, err := cpu.Run(10000); err != nil {
		t.Fatal(err)
	}
	if cpu.Fast.Steps != 0 || cpu.Fast.Bails[BailHookAttached] != 1 {
		t.Fatalf("FastStats %+v", cpu.Fast)
	}
	if cov := cpu.Fast.Coverage(cpu.Stats.Steps); cov != 0 {
		t.Fatalf("coverage %v on a fully instrumented run", cov)
	}
}

// TestRecordStaysFused: a recorder is a counter sink, not a hook. A
// Record-only run stays entirely on the fused loop, and the execution
// counters it exports equal those of a TraceStep run of the same program.
func TestRecordStaysFused(t *testing.T) {
	p := parityProgram(t)
	run := func(hook bool) (*CPU, stats.Snapshot) {
		t.Helper()
		cpu, err := NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		rec := stats.New()
		cpu.Record = rec
		if hook {
			cpu.TraceStep = func(StepInfo) {}
		}
		if _, err := cpu.Run(10000); err != nil {
			t.Fatal(err)
		}
		return cpu, rec.Snapshot()
	}
	fused, fsnap := run(false)
	if fused.Fast.Steps != fused.Stats.Steps || fused.Fast.Bails[BailHookAttached] != 0 {
		t.Fatalf("Record knocked the run off the fast path: %d of %d steps (%s)",
			fused.Fast.Steps, fused.Stats.Steps, fused.Fast.BailSummary())
	}
	if got := fsnap.Counter("machine.fastpath.steps"); got != fused.Stats.Steps {
		t.Fatalf("exported fastpath.steps %d, want %d", got, fused.Stats.Steps)
	}
	stepped, ssnap := run(true)
	if stepped.Fast.Bails[BailHookAttached] != 1 {
		t.Fatalf("TraceStep run FastStats %+v, want one hook_attached bail", stepped.Fast)
	}
	for _, name := range []string{"machine.steps", "machine.expanded", "machine.fetched_bytes", "machine.mem_fetches"} {
		if f, s := fsnap.Counter(name), ssnap.Counter(name); f != s {
			t.Errorf("%s: fused run exported %d, Step run %d", name, f, s)
		}
	}
	if fsnap.Counter("machine.steps") != fused.Stats.Steps {
		t.Errorf("machine.steps %d, Stats.Steps %d", fsnap.Counter("machine.steps"), fused.Stats.Steps)
	}
	if fsnap.Counter("machine.mem_fetches") != fused.Stats.MemFetches {
		t.Errorf("machine.mem_fetches %d, Stats.MemFetches %d", fsnap.Counter("machine.mem_fetches"), fused.Stats.MemFetches)
	}
}

// plainFrontend hides a frontend's predecode capability, standing in for
// any frontend configuration that cannot supply a table.
type plainFrontend struct{ Frontend }

func TestBailReasonFrontendRefused(t *testing.T) {
	p := parityProgram(t)
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	cpu.fe = plainFrontend{cpu.fe}
	if _, err := cpu.Run(10000); err != nil {
		t.Fatal(err)
	}
	if cpu.Fast.Steps != 0 || cpu.Fast.Bails[BailFrontendRefused] != 1 {
		t.Fatalf("FastStats %+v", cpu.Fast)
	}
}

func TestBailReasonSelfModifiedText(t *testing.T) {
	// Same self-patching program as TestFastPathSelfModifyingText; here we
	// assert the bail is classified, not just survived.
	cpu := selfModifyingCPU(t)
	if _, err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if cpu.Fast.Bails[BailSelfModifiedText] != 1 {
		t.Fatalf("FastStats %+v, want one self_modified_text bail", cpu.Fast)
	}
	if cpu.Fast.Steps == 0 || cpu.Fast.Steps == cpu.Stats.Steps {
		t.Fatalf("expected a split run, fast %d of %d", cpu.Fast.Steps, cpu.Stats.Steps)
	}
}

func TestEpochSamplingParity(t *testing.T) {
	// Epoch sampling must not perturb architecture or Stats: a bare
	// machine and a sampled one (tiny epochs, forcing many boundaries)
	// must agree on everything, and the drained traffic must conserve the
	// step and fetch totals exactly.
	p := parityProgram(t)
	bare, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.New()
	obs := &epochRecorder{}
	sampled.Record = rec
	sampled.EnableEpochSampling(obs)
	sampled.EpochSteps = 7
	bs, berr := bare.Run(10000)
	ss, serr := sampled.Run(10000)
	if berr != nil || serr != nil {
		t.Fatalf("run errors: bare %v, sampled %v", berr, serr)
	}
	if bs != ss || !bytes.Equal(bare.Output(), sampled.Output()) {
		t.Fatalf("sampled run diverged: status %d vs %d", bs, ss)
	}
	if bare.Stats != sampled.Stats {
		t.Fatalf("stats: bare %+v, sampled %+v", bare.Stats, sampled.Stats)
	}
	if sampled.Fast.Steps != sampled.Stats.Steps {
		t.Fatalf("sampling knocked the run off the fast path: %+v", sampled.Fast)
	}
	if sampled.Fast.Bails[BailHookAttached] != 0 {
		t.Fatal("epoch sampling counted as a hook")
	}
	// The final partial epoch stays in flight until flushed; conservation
	// holds only over the flushed whole.
	sampled.FlushEpoch()
	if sampled.Fast.Epochs < 2 || int64(obs.epochs) != sampled.Fast.Epochs {
		t.Fatalf("epochs %d, observer saw %d", sampled.Fast.Epochs, obs.epochs)
	}
	if obs.steps != sampled.Stats.Steps {
		t.Fatalf("drained traffic steps %d, executed %d", obs.steps, sampled.Stats.Steps)
	}
	if obs.fetches != sampled.Stats.MemFetches {
		t.Fatalf("drained traffic fetches %d, MemFetches %d", obs.fetches, sampled.Stats.MemFetches)
	}
	if obs.bad != "" {
		t.Fatalf("touched-list contract violated: %s", obs.bad)
	}
	snap := rec.Snapshot()
	if got := snap.Counter("machine.fastpath.steps"); got != sampled.Fast.Steps {
		t.Fatalf("exported fastpath.steps %d, want %d", got, sampled.Fast.Steps)
	}
	if got := snap.Counter("machine.fastpath.slow_steps"); got != 0 {
		t.Fatalf("exported slow_steps %d on a pure fast run", got)
	}
	if got := snap.Counter("machine.fastpath.bail.exit"); got != 1 {
		t.Fatalf("exported bail.exit %d", got)
	}
	// Zero-valued bail counters materialize too, so exporters always show
	// the full vocabulary.
	if _, ok := snap.Counters["machine.fastpath.bail.budget"]; !ok {
		t.Fatal("zero bail counter not materialized in the snapshot")
	}
	h := snap.Hist("machine.fastpath.epoch_len")
	if h.Count != sampled.Fast.Epochs || h.Sum != sampled.Fast.Steps {
		t.Fatalf("epoch_len histogram count=%d sum=%d, want %d epochs, %d steps",
			h.Count, h.Sum, sampled.Fast.Epochs, sampled.Fast.Steps)
	}
	if got := snap.Counter("machine.fastpath.epochs"); got != sampled.Fast.Epochs {
		t.Fatalf("exported epochs %d, want %d (the flushed epoch included)", got, sampled.Fast.Epochs)
	}
}

// TestFetchJournalWithEpochs: the fetch journal and epoch sampling both
// bound the fused loop's step limit; with a TraceFetch hook attached the
// run stays fused, every fetch is delivered by the time Run returns, and
// epochs still drain at exactly EpochSteps — the journal drains, at its
// capacity between epoch boundaries here, are not epoch boundaries.
func TestFetchJournalWithEpochs(t *testing.T) {
	p := newSpinBuilder(t)
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.New()
	cpu.Record = rec
	cpu.EnableEpochSampling(&epochRecorder{})
	const epoch = JournalLen + 904
	cpu.EpochSteps = epoch
	var fetches int64
	cpu.TraceFetch = func(addr uint32, n int) {
		if addr != p.TextBase || n != 4 {
			t.Errorf("fetch (%#x, %d), want (%#x, 4)", addr, n, p.TextBase)
		}
		fetches++
	}
	const budget = 3*JournalLen + 500
	if _, err := cpu.Run(budget); err == nil {
		t.Fatal("spin loop exited")
	}
	if fetches != budget || cpu.Fast.Steps != budget || cpu.Fast.Bails[BailBudget] != 1 {
		t.Fatalf("%d fetches delivered, fast path %+v", fetches, cpu.Fast)
	}
	if len(cpu.journal) != 0 || cap(cpu.journal) != JournalLen {
		t.Fatalf("journal len %d cap %d after Run, want empty with capacity %d", len(cpu.journal), cap(cpu.journal), JournalLen)
	}
	cpu.FlushEpoch()
	h := rec.Snapshot().Hist("machine.fastpath.epoch_len")
	if h.Count != budget/epoch+1 || h.Max != epoch || h.Min != budget%epoch || h.Sum != budget {
		t.Fatalf("epoch_len histogram count=%d min=%d max=%d sum=%d", h.Count, h.Min, h.Max, h.Sum)
	}
}

func TestEpochSpans(t *testing.T) {
	tr := trace.New()
	root := tr.Root("run")
	cpu, err := NewForProgram(parityProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	cpu.EpochSteps = 10
	cpu.TraceEpochs(root)
	if _, err := cpu.Run(10000); err != nil {
		t.Fatal(err)
	}
	cpu.FlushEpoch()
	root.End()
	var epochs int
	var total int64
	sawBail := false
	for _, s := range tr.Spans() {
		if s.Name != "machine.epoch" {
			continue
		}
		epochs++
		if !s.Ended {
			t.Fatalf("unended epoch span %+v", s)
		}
		for _, a := range s.Attrs {
			if a.Key == "steps" {
				var v int64
				for _, ch := range a.Value {
					v = v*10 + int64(ch-'0')
				}
				total += v
			}
			if a.Key == "bail" && a.Value == "exit" {
				sawBail = true
			}
		}
	}
	if int64(epochs) != cpu.Fast.Epochs || epochs < 2 {
		t.Fatalf("%d epoch spans for %d epochs", epochs, cpu.Fast.Epochs)
	}
	if total != cpu.Fast.Steps {
		t.Fatalf("span step attrs sum to %d, fast steps %d", total, cpu.Fast.Steps)
	}
	if !sawBail {
		t.Fatal("final epoch span missing its bail attribute")
	}
}

func TestResetClearsFastStats(t *testing.T) {
	cpu, err := NewForProgram(parityProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.New()
	obs := &epochRecorder{}
	cpu.Record = rec
	cpu.EnableEpochSampling(obs)
	cpu.EpochSteps = 7
	if _, err := cpu.Run(10000); err != nil {
		t.Fatal(err)
	}
	first := cpu.Fast
	if err := cpu.Reset(); err != nil {
		t.Fatal(err)
	}
	if cpu.Fast != (FastStats{}) {
		t.Fatalf("Reset left FastStats %+v", cpu.Fast)
	}
	if _, err := cpu.Run(10000); err != nil {
		t.Fatal(err)
	}
	if cpu.Fast != first {
		t.Fatalf("rerun FastStats %+v, first run %+v", cpu.Fast, first)
	}
	// Run deltas accumulate in the recorder across the two runs.
	if got := rec.Snapshot().Counter("machine.fastpath.steps"); got != 2*first.Steps {
		t.Fatalf("accumulated fastpath.steps %d, want %d", got, 2*first.Steps)
	}
}

func TestEpochSpansRuns(t *testing.T) {
	// Epochs are intervals of the machine's lifetime, not of one Run: with
	// an epoch longer than a whole run, repeated Reset+Run cycles accumulate
	// traffic without draining, and one flush folds the lot. This is the
	// serving shape the ≤1.10× overhead gate measures — per-request cost
	// must not include a fold.
	cpu, err := NewForProgram(parityProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.New()
	obs := &epochRecorder{}
	cpu.Record = rec
	cpu.EnableEpochSampling(obs)
	cpu.EpochSteps = 1 << 30
	const runs = 3
	var total, fetches int64
	for i := 0; i < runs; i++ {
		if i > 0 {
			if err := cpu.Reset(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cpu.Run(10000); err != nil {
			t.Fatal(err)
		}
		total += cpu.Stats.Steps
		fetches += cpu.Stats.MemFetches
	}
	if obs.epochs != 0 {
		t.Fatalf("epoch drained mid-serving: %d drains for runs shorter than the epoch", obs.epochs)
	}
	cpu.FlushEpoch()
	if obs.epochs != 1 {
		t.Fatalf("flush drained %d epochs, want 1", obs.epochs)
	}
	if obs.steps != total || obs.fetches != fetches {
		t.Fatalf("flushed traffic %d steps/%d fetches, executed %d/%d across %d runs",
			obs.steps, obs.fetches, total, fetches, runs)
	}
	if obs.bad != "" {
		t.Fatalf("touched-list contract violated: %s", obs.bad)
	}
	if h := rec.Snapshot().Hist("machine.fastpath.epoch_len"); h.Count != 1 || h.Sum != total {
		t.Fatalf("epoch_len histogram count=%d sum=%d, want one epoch of %d steps", h.Count, h.Sum, total)
	}
	// A second flush is a no-op.
	cpu.FlushEpoch()
	if obs.epochs != 1 {
		t.Fatal("empty flush drained an epoch")
	}
}

func TestBailSummaryEmpty(t *testing.T) {
	var f FastStats
	if s := f.BailSummary(); s != "none" {
		t.Fatalf("empty BailSummary %q", s)
	}
	f.Bails[BailExit] = 2
	f.Bails[BailOffTable] = 11
	if s := f.BailSummary(); s != "exit=2 off_table=11" {
		t.Fatalf("BailSummary %q", s)
	}
	if strings.Contains(BailSelfModifiedText.String(), " ") {
		t.Fatal("bail names must be single tokens")
	}
}

// newSpinBuilder links an infinite loop, for budget-bail tests.
func newSpinBuilder(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("spin")
	f := b.Func("main")
	f.Label("spin")
	f.Branch(ppc.B(0), "spin")
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// selfModifyingCPU builds the self-patching program of
// TestFastPathSelfModifyingText on a bare machine.
func selfModifyingCPU(t *testing.T) *CPU {
	t.Helper()
	b := program.NewBuilder("selfmod")
	f := b.Func("main")
	const patchIdx = 5
	patchAddr := uint32(program.DefaultTextBase + 4*patchIdx)
	newWord := ppc.Li(3, 42)
	f.Emit(ppc.Lis(9, int32(int16(patchAddr>>16))))
	f.Emit(ppc.Ori(9, 9, int32(patchAddr&0xFFFF)))
	f.Emit(ppc.Lis(10, int32(int16(newWord>>16))))
	f.Emit(ppc.Ori(10, 10, int32(newWord&0xFFFF)))
	f.Emit(ppc.Stw(10, 0, 9))
	f.Emit(ppc.Li(3, 1)) // patched to li r3,42 before it executes
	emitExit(f)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	return cpu
}
