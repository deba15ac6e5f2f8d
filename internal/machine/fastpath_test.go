package machine

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/stats"
)

// slotRecorder totals what TraceSlots delivers, so tests can check it
// against the CPU's own counters: each fetch supplies its slot's EntryLen
// instructions, less the batch's cut on its last one. Indices are masked
// of their SlotTaken flag.
type slotRecorder struct {
	batches        int
	steps, fetches int64
	bad            string
}

func (r *slotRecorder) observe(pd *Predecode, slots []uint32, cut int) {
	r.batches++
	if len(slots) == 0 {
		r.bad = "empty batch"
		return
	}
	for _, i := range slots {
		r.steps += int64(pd.Slots[i&^SlotTaken].EntryLen)
	}
	if cut < 0 || cut >= int(pd.Slots[slots[len(slots)-1]&^SlotTaken].EntryLen) {
		r.bad = "cut outside the batch's last expansion"
	}
	r.steps -= int64(cut)
	r.fetches += int64(len(slots))
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

// TestRecordedRunAllocatesNothing: a Run with a Record that exits cleanly
// exports its counters without a heap allocation (only a failed Run looks
// for a *Fault).
func TestRecordedRunAllocatesNothing(t *testing.T) {
	cpu, err := NewForProgram(parityProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	cpu.Record = stats.New()
	run := func() {
		cpu.Reset()
		if _, err := cpu.Run(10000); err != nil {
			t.Fatal(err)
		}
	}
	run() // registers the counters
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("a recorded Reset+Run allocated %.1f objects, want 0", allocs)
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

func TestTraceSlotsParity(t *testing.T) {
	// A slot observer must not perturb architecture or Stats: a bare
	// machine and an observed one must agree on everything, the observed
	// run must stay fused, and the delivered slots must account for the
	// step and fetch totals exactly.
	p := parityProgram(t)
	bare, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.New()
	obs := &slotRecorder{}
	observed.Record = rec
	observed.TraceSlots = obs.observe
	bs, berr := bare.Run(10000)
	ss, serr := observed.Run(10000)
	if berr != nil || serr != nil {
		t.Fatalf("run errors: bare %v, observed %v", berr, serr)
	}
	if bs != ss || !bytes.Equal(bare.Output(), observed.Output()) {
		t.Fatalf("observed run diverged: status %d vs %d", bs, ss)
	}
	if bare.Stats != observed.Stats {
		t.Fatalf("stats: bare %+v, observed %+v", bare.Stats, observed.Stats)
	}
	if observed.Fast.Steps != observed.Stats.Steps {
		t.Fatalf("TraceSlots knocked the run off the fast path: %+v", observed.Fast)
	}
	if observed.Fast.Bails[BailHookAttached] != 0 {
		t.Fatal("TraceSlots counted as a per-step hook")
	}
	// Everything is delivered by the time Run returns: no flush.
	if obs.batches == 0 || obs.steps != observed.Stats.Steps {
		t.Fatalf("%d batches delivered %d steps, executed %d", obs.batches, obs.steps, observed.Stats.Steps)
	}
	if obs.fetches != observed.Stats.MemFetches {
		t.Fatalf("delivered fetches %d, MemFetches %d", obs.fetches, observed.Stats.MemFetches)
	}
	if obs.bad != "" {
		t.Fatalf("TraceSlots contract violated: %s", obs.bad)
	}
	snap := rec.Snapshot()
	if got := snap.Counter("machine.fastpath.steps"); got != observed.Fast.Steps {
		t.Fatalf("exported fastpath.steps %d, want %d", got, observed.Fast.Steps)
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
}

func TestResetClearsFastStats(t *testing.T) {
	cpu, err := NewForProgram(parityProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.New()
	obs := &slotRecorder{}
	cpu.Record = rec
	cpu.TraceSlots = obs.observe
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
