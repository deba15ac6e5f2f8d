package guestprof_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/guestprof/guestproftest"
	"repro/internal/machine"
	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/synth"
)

// buildCallers links a three-level program with fully predictable control
// flow: main calls mid twice, mid calls leaf once per call.
func buildCallers(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("callers")

	main := b.Func("main")
	main.Emit(ppc.Li(3, 0))
	main.Call("mid")
	main.Call("mid")
	main.Emit(ppc.Li(0, machine.SysExit))
	main.Emit(ppc.Sc())

	mid := b.Func("mid")
	mid.BeginPrologue()
	mid.Emit(ppc.Mflr(0))
	mid.Emit(ppc.Stw(0, 8, 1))
	mid.Emit(ppc.Stwu(1, -16, 1))
	mid.EndPrologue()
	mid.Call("leaf")
	mid.BeginEpilogue()
	mid.Emit(ppc.Addi(1, 1, 16))
	mid.Emit(ppc.Lwz(0, 8, 1))
	mid.Emit(ppc.Mtlr(0))
	mid.Emit(ppc.Blr())
	mid.EndEpilogue()

	leaf := b.Func("leaf")
	leaf.Emit(ppc.Addi(3, 3, 1))
	leaf.Emit(ppc.Blr())

	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

// profiledRun executes the program natively with a profiler attached.
func profiledRun(t *testing.T, p *program.Program) (*machine.CPU, *guestprof.Profiler) {
	t.Helper()
	cpu, err := machine.NewForProgram(p)
	if err != nil {
		t.Fatalf("NewForProgram: %v", err)
	}
	prof := guestprof.New(guestprof.NewProgramSymTab(p))
	prof.Attach(cpu)
	if _, err := cpu.Run(10_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return cpu, prof
}

func flatCycleSum(pr *guestprof.Profile) int64 {
	var n int64
	for _, f := range pr.Funcs {
		n += f.Flat.Cycles
	}
	return n
}

func TestFoldedGolden(t *testing.T) {
	p := buildCallers(t)
	cpu, prof := profiledRun(t, p)

	// Exact step accounting: main executes li, two bl, li, sc (5); each of
	// the two mid calls executes 4 prologue + bl + 4 epilogue + blr... the
	// builder's prologue/epilogue markers only bracket, they add nothing.
	// Rather than re-deriving the instruction count here, the golden output
	// pins it: any change to attribution, stack tracking, or the folded
	// format shows up as a diff against this literal.
	var sb strings.Builder
	if err := prof.WriteFolded(&sb); err != nil {
		t.Fatalf("WriteFolded: %v", err)
	}
	const want = `main 5
main;mid 16
main;mid;leaf 4
`
	if sb.String() != want {
		t.Errorf("folded output:\n%s\nwant:\n%s", sb.String(), want)
	}
	if got := flatCycleSum(prof.Profile("callers")); got != cpu.Stats.Steps {
		t.Errorf("flat cycles %d != steps %d", got, cpu.Stats.Steps)
	}
}

func TestCumulativeCounts(t *testing.T) {
	p := buildCallers(t)
	cpu, prof := profiledRun(t, p)
	pr := prof.Profile("callers")

	if pr.Total.Cycles != cpu.Stats.Steps {
		t.Fatalf("Total.Cycles %d != steps %d", pr.Total.Cycles, cpu.Stats.Steps)
	}
	mainFP, ok := pr.FuncByName("main")
	if !ok {
		t.Fatal("main missing from profile")
	}
	// main is on the stack for every cycle of the run.
	if mainFP.Cum.Cycles != cpu.Stats.Steps {
		t.Errorf("main cum %d != steps %d", mainFP.Cum.Cycles, cpu.Stats.Steps)
	}
	mid, ok := pr.FuncByName("mid")
	if !ok {
		t.Fatal("mid missing from profile")
	}
	if mid.Cum.Cycles != mid.Flat.Cycles+4 { // leaf's 4 cycles nest under mid
		t.Errorf("mid cum %d, want flat %d + 4", mid.Cum.Cycles, mid.Flat.Cycles)
	}
	// Hottest-first: mid (16 flat) before main (5) before leaf (4).
	var order []string
	for _, f := range pr.Funcs {
		order = append(order, f.Name)
	}
	if strings.Join(order, ",") != "mid,main,leaf" {
		t.Errorf("function order %v, want hottest-first mid,main,leaf", order)
	}
}

func TestRecursionCumulativeCountsOnce(t *testing.T) {
	b := program.NewBuilder("fact")
	main := b.Func("main")
	main.Emit(ppc.Li(3, 6))
	main.Call("fact")
	main.Emit(ppc.Li(0, machine.SysExit))
	main.Emit(ppc.Sc())

	f := b.Func("fact")
	f.BeginPrologue()
	f.Emit(ppc.Mflr(0))
	f.Emit(ppc.Stw(0, 8, 1))
	f.Emit(ppc.Stwu(1, -32, 1))
	f.Emit(ppc.Stmw(31, 28, 1))
	f.EndPrologue()
	f.Emit(ppc.Mr(31, 3))
	f.Emit(ppc.Cmpwi(0, 3, 1))
	f.Branch(ppc.Bgt(0, 0), "recurse")
	f.Emit(ppc.Li(3, 1))
	f.Branch(ppc.B(0), "out")
	f.Label("recurse")
	f.Emit(ppc.Addi(3, 31, -1))
	f.Call("fact")
	f.Emit(ppc.Mullw(3, 3, 31))
	f.Label("out")
	f.BeginEpilogue()
	f.Emit(ppc.Lmw(31, 28, 1))
	f.Emit(ppc.Addi(1, 1, 32))
	f.Emit(ppc.Lwz(0, 8, 1))
	f.Emit(ppc.Mtlr(0))
	f.Emit(ppc.Blr())
	f.EndEpilogue()

	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	cpu, prof := profiledRun(t, p)
	pr := prof.Profile("fact")

	if got := flatCycleSum(pr); got != cpu.Stats.Steps || pr.Total.Cycles != cpu.Stats.Steps {
		t.Fatalf("conservation: flat sum %d total %d steps %d", got, pr.Total.Cycles, cpu.Stats.Steps)
	}
	fact, ok := pr.FuncByName("fact")
	if !ok {
		t.Fatal("fact missing from profile")
	}
	// Recursion: every fact frame nests under another fact frame, but each
	// cycle inside the recursion must count toward fact's cumulative exactly
	// once — cum can never exceed the run's total.
	if fact.Cum.Cycles > pr.Total.Cycles {
		t.Errorf("fact cum %d exceeds total %d (recursion double-counted)", fact.Cum.Cycles, pr.Total.Cycles)
	}
	if fact.Cum.Cycles <= fact.Flat.Cycles/2 {
		t.Errorf("fact cum %d implausibly small vs flat %d", fact.Cum.Cycles, fact.Flat.Cycles)
	}
	if prof.Depth() != 1 { // everything returned; only main's entry frame remains
		t.Errorf("final stack depth %d, want 1", prof.Depth())
	}
}

// TestConservationAllBenchmarks is the acceptance check: for every synth
// benchmark, in both the native and the compressed run, the profiler's
// summed per-function cycles exactly equal the machine's step count — the
// profiler observes every step and attributes each exactly once.
func TestConservationAllBenchmarks(t *testing.T) {
	for _, name := range synth.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := synth.Generate(name)
			if err != nil {
				t.Fatalf("Generate: %v", err)
			}

			// Native run.
			cpu, err := machine.NewForProgram(p)
			if err != nil {
				t.Fatalf("NewForProgram: %v", err)
			}
			nprof := guestprof.New(guestprof.NewProgramSymTab(p))
			nprof.Attach(cpu)
			if _, err := cpu.Run(200_000_000); err != nil {
				t.Fatalf("native Run: %v", err)
			}
			npr := nprof.Profile(name)
			if got := flatCycleSum(npr); got != cpu.Stats.Steps {
				t.Errorf("native: flat cycles %d != steps %d", got, cpu.Stats.Steps)
			}
			if npr.Total.Cycles != cpu.Stats.Steps {
				t.Errorf("native: total %d != steps %d", npr.Total.Cycles, cpu.Stats.Steps)
			}

			// Compressed run, symbolized through the address map.
			img, err := core.Compress(p.Clone(), core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
			if err != nil {
				t.Fatalf("Compress: %v", err)
			}
			sym, err := img.GuestSymTab()
			if err != nil {
				t.Fatalf("GuestSymTab: %v", err)
			}
			ccpu, err := core.NewMachine(img)
			if err != nil {
				t.Fatalf("NewMachine: %v", err)
			}
			cprof := guestprof.New(sym)
			cprof.Attach(ccpu)
			if _, err := ccpu.Run(200_000_000); err != nil {
				t.Fatalf("compressed Run: %v", err)
			}
			cpr := cprof.Profile(name)
			if got := flatCycleSum(cpr); got != ccpu.Stats.Steps {
				t.Errorf("compressed: flat cycles %d != steps %d", got, ccpu.Stats.Steps)
			}
			if cpr.Total.Cycles != ccpu.Stats.Steps {
				t.Errorf("compressed: total %d != steps %d", cpr.Total.Cycles, ccpu.Stats.Steps)
			}
			// The heat map counts every expansion the profile attributes.
			var heat int64
			for _, n := range cprof.Heat() {
				heat += n
			}
			if heat != cpr.Total.Expansions || heat == 0 {
				t.Errorf("compressed: heat map sums %d, profile counts %d expansions", heat, cpr.Total.Expansions)
			}
			if len(nprof.Heat()) != 0 {
				t.Errorf("native: heat map %v, want empty", nprof.Heat())
			}

			// Symbolization: the compressed profile must name the same
			// functions as the native one (that is the point of the address
			// map) and leave nothing unattributed.
			native := map[string]bool{}
			for _, f := range npr.Funcs {
				native[f.Name] = true
			}
			var unknown int64
			for _, f := range cpr.Funcs {
				if f.Name == guestprof.UnknownName {
					unknown += f.Flat.Cycles
					continue
				}
				if !native[f.Name] {
					t.Errorf("compressed profile names %q, absent from native profile", f.Name)
				}
			}
			if unknown != 0 {
				t.Errorf("compressed run left %d cycles unsymbolized", unknown)
			}
		})
	}
}

// TestCallToOwnFallThrough pins the one transfer the address of the next
// delivered slot cannot reveal: a conditional call whose target is its own
// fall-through. Taken, it opens a frame; not taken, it does not; the
// journal carries the difference as machine.SlotTaken. The journal-fed
// profile must equal the Step-fed one, natively and compressed, on the
// fused loop and on the Step path.
func TestCallToOwnFallThrough(t *testing.T) {
	b := program.NewBuilder("selfcall")
	bcl := func(bo uint8) uint32 { return ppc.Encode(ppc.Inst{Op: ppc.OpBc, BO: bo, BI: ppc.CrEQ, LK: true}) }
	main := b.Func("main")
	main.Emit(ppc.Li(3, 0))
	main.Emit(ppc.Cmpwi(0, 3, 0))
	main.Branch(bcl(ppc.BoFalse), "untaken") // bnel to its fall-through: not taken
	main.Label("untaken")
	main.Branch(bcl(ppc.BoTrue), "taken") // beql to its fall-through: taken
	main.Label("taken")
	main.Call("leaf")
	main.Emit(ppc.Li(0, machine.SysExit))
	main.Emit(ppc.Sc())
	leaf := b.Func("leaf")
	leaf.Emit(ppc.Addi(3, 3, 1))
	leaf.Emit(ppc.Blr())
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p.Clone(), core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	isym, err := img.GuestSymTab()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mk   func() (*machine.CPU, error)
		sym  *guestprof.SymTab
	}{
		{"native", func() (*machine.CPU, error) { return machine.NewForProgram(p) }, guestprof.NewProgramSymTab(p)},
		{"nibble", func() (*machine.CPU, error) { return core.NewMachine(img) }, isym},
	} {
		ref, err := tc.mk()
		if err != nil {
			t.Fatal(err)
		}
		oracle := guestprof.New(tc.sym)
		ref.TraceStep = oracle.Step
		if _, err := ref.Run(1000); err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		if err := oracle.WriteFolded(&want); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(want.String(), "main;main;leaf ") {
			t.Fatalf("%s: the taken call opened no frame:\n%s", tc.name, want.String())
		}
		for _, stepped := range []bool{false, true} {
			cpu, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			prof := guestprof.New(tc.sym)
			prof.Attach(cpu)
			if stepped {
				cpu.TraceStep = func(machine.StepInfo) {}
			}
			if _, err := cpu.Run(1000); err != nil {
				t.Fatal(err)
			}
			guestproftest.Same(t, fmt.Sprintf("%s, stepped=%v", tc.name, stepped), oracle, prof)
		}
	}
}

// TestObserveCacheMisuse: a cache observed in the wrong order, or one no
// TraceFetch feeds, panics rather than attributing no misses.
func TestObserveCacheMisuse(t *testing.T) {
	p := buildCallers(t)
	sym := guestprof.NewProgramSymTab(p)
	for _, tc := range []struct {
		name  string
		setup func(prof *guestprof.Profiler, cpu *machine.CPU)
	}{
		{"observed after Attach", func(prof *guestprof.Profiler, cpu *machine.CPU) {
			cpu.TraceFetch = func(uint32, int) {}
			prof.Attach(cpu)
			prof.ObserveCache(guestproftest.NewCache(t))
		}},
		{"no TraceFetch", func(prof *guestprof.Profiler, cpu *machine.CPU) {
			prof.ObserveCache(guestproftest.NewCache(t))
			prof.Attach(cpu)
		}},
	} {
		cpu, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.setup(guestprof.New(sym), cpu)
		}()
	}
}
