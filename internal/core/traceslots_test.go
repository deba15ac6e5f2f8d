package core

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"repro/internal/codeword"
	"repro/internal/guestprof"
	"repro/internal/guestprof/guestproftest"
	"repro/internal/machine"
	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/synth"
)

// TestTraceSlotsCutSites covers every place the fused loop ends an
// expansion early or hands it to Step — an exit sc, a fault and a taken
// branch inside a dictionary entry, a budget that lands mid-expansion —
// plus a run that bails to Step for good (self-modified text) and runs
// with TraceFetch feeding an observed I-cache beside TraceSlots, on a
// native and a nibble machine. The journal-fed profiler must match the
// Step-fed one exactly: folded stacks, flat and cumulative counts (cache
// misses included) and heat; the slots must account for every step; and
// TraceFetch must still see the Step path's sequence.
func TestTraceSlotsCutSites(t *testing.T) {
	p, err := synth.Generate(bench)
	if err != nil {
		t.Fatal(err)
	}
	native := func(p *program.Program) func(t *testing.T) (*machine.CPU, *guestprof.SymTab) {
		return func(t *testing.T) (*machine.CPU, *guestprof.SymTab) {
			cpu, err := machine.NewForProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			return cpu, guestprof.NewProgramSymTab(p)
		}
	}
	// The nibble cases damage the hottest entry of three or more
	// instructions: its first instructions become head, so an execution
	// of it leaves the rest of the expansion unexecuted.
	hot := hottestLongEntry(t)
	nibble := func(head ...uint32) func(t *testing.T) (*machine.CPU, *guestprof.SymTab) {
		return func(t *testing.T) (*machine.CPU, *guestprof.SymTab) {
			img, _ := compress(t, bench, codeword.Nibble)
			if len(head) > 0 {
				w := slices.Clone(img.Entries[hot].Words)
				copy(w, head)
				img.Entries[hot].Words = w
			}
			cpu, err := NewMachine(img)
			if err != nil {
				t.Fatal(err)
			}
			sym, err := img.GuestSymTab()
			if err != nil {
				t.Fatal(err)
			}
			return cpu, sym
		}
	}
	const whole = 50_000_000
	exitPair := []uint32{ppc.Li(0, machine.SysExit), ppc.Sc()}
	faultPair := []uint32{ppc.Li(9, 16), ppc.Lwz(3, 0, 9)}
	for _, tc := range []struct {
		name   string
		build  func(t *testing.T) (*machine.CPU, *guestprof.SymTab)
		budget int64  // 0: the first step that continues an expansion past the first journal drain
		end    string // how the run ends: exit, fault or budget ("" for any)
		fetch  bool   // attach TraceFetch, feeding an observed I-cache, beside TraceSlots
		cut    bool   // an expansion must end early
		step   bool   // Step must execute part of the run
	}{
		{"native/exit", native(p), whole, "exit", false, false, false},
		{"native/fault", native(hostileProgram(t, faultPair...)), whole, "fault", false, false, false},
		{"native/budget", native(p), machine.JournalLen + 5, "budget", false, false, false},
		{"native/both hooks", native(p), whole, "exit", true, false, false},
		{"native/self-modified text", native(selfModifyingCaller(t)), whole, "exit", true, false, true},
		{"nibble/exit in entry", nibble(exitPair...), whole, "exit", false, true, false},
		{"nibble/fault in entry", nibble(faultPair...), whole, "fault", false, true, false},
		// Returning from the entry's head runs the program off its rails,
		// so only the budget bounds it.
		{"nibble/branch in entry", nibble(ppc.Blr()), 200_000, "", false, true, false},
		// The fused loop hands the expansion the budget lands in to Step.
		{"nibble/budget mid-expansion", nibble(), 0, "budget", false, false, true},
		{"nibble/both hooks", nibble(), whole, "exit", true, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			budget, steps := tc.budget, int64(0)
			reference := func(t *testing.T) (*guestprof.Profiler, machine.Stats, fetchLog, error) {
				ref, sym := tc.build(t)
				gp := guestprof.New(sym)
				ref.TraceStep = gp.Step
				if budget == 0 {
					ref.TraceStep = func(si machine.StepInfo) {
						if si.MemBytes == 0 && budget <= machine.JournalLen {
							budget = steps
						}
						steps++
						gp.Step(si)
					}
				}
				var fetches fetchLog
				ref.TraceFetch = fetches.hook
				if tc.fetch {
					ic := guestproftest.NewCache(t)
					ref.TraceFetch = func(addr uint32, nbytes int) {
						fetches.hook(addr, nbytes)
						ic.Access(addr, nbytes)
					}
					gp.ObserveCache(ic)
				}
				_, err := ref.Run(cmp.Or(budget, whole))
				return gp, ref.Stats, fetches, err
			}
			ref, refStats, refFetches, refErr := reference(t)
			if tc.budget == 0 {
				if budget <= machine.JournalLen {
					t.Fatal("no expansion continues past the first journal drain")
				}
				// Rerun the reference to the budget found.
				ref, refStats, refFetches, refErr = reference(t)
			}

			cpu, sym := tc.build(t)
			gp := guestprof.New(sym)
			var fetches fetchLog
			if tc.fetch {
				ic := guestproftest.NewCache(t)
				cpu.TraceFetch = func(addr uint32, nbytes int) {
					fetches.hook(addr, nbytes)
					ic.Access(addr, nbytes)
				}
				gp.ObserveCache(ic)
			}
			gp.Attach(cpu)
			cuts, stepped, observe := 0, 0, cpu.TraceSlots
			cpu.TraceSlots = func(pd *machine.Predecode, slots []uint32, cut int) {
				if cut > 0 {
					cuts++
				}
				if len(pd.Slots) == 1 {
					stepped++ // Step's one-slot table
				}
				observe(pd, slots, cut)
			}
			_, err := cpu.Run(budget)
			if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
				t.Fatalf("fused run error %v, Step path %v", err, refErr)
			}
			end := "exit"
			if errors.As(err, new(*machine.Fault)) {
				end = "fault"
			} else if err != nil {
				end = "budget"
			}
			if tc.end != "" && end != tc.end {
				t.Fatalf("run ended in %s (%v), want %s", end, err, tc.end)
			}
			if cpu.Stats != refStats {
				t.Fatalf("stats %+v, Step path %+v", cpu.Stats, refStats)
			}
			if tc.cut && cuts == 0 {
				t.Fatal("no expansion ended early")
			}
			if tc.step != (stepped > 0) {
				t.Fatalf("Step delivered %d instructions", stepped)
			}
			prof := gp.Profile(bench)
			if prof.Total.Cycles != cpu.Stats.Steps {
				t.Fatalf("observed slots account for %d steps, the run executed %d (%s)",
					prof.Total.Cycles, cpu.Stats.Steps, cpu.Fast.BailSummary())
			}
			bailed := cpu.Fast.Bails[machine.BailSelfModifiedText] > 0
			if bailed == (cpu.Fast.Steps == cpu.Stats.Steps) {
				t.Fatalf("coverage %d of %d steps (%s)", cpu.Fast.Steps, cpu.Stats.Steps, cpu.Fast.BailSummary())
			}
			guestproftest.Same(t, bench, ref, gp)
			if tc.fetch && prof.Total.CacheMisses == 0 {
				t.Fatal("no cache misses attributed")
			}
			if tc.fetch && !slices.Equal(fetches, refFetches) {
				t.Fatalf("TraceFetch saw %d accesses beside TraceSlots, Step path %d", len(fetches), len(refFetches))
			}
		})
	}
}

// selfModifyingCaller stores to its own text before calling a function
// twice, so the fused loop bails at the store and Step runs the calls.
func selfModifyingCaller(t *testing.T) *program.Program {
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
	f.Call("leaf")
	f.Call("leaf")
	f.Emit(ppc.Li(0, machine.SysExit))
	f.Emit(ppc.Sc())
	leaf := b.Func("leaf")
	leaf.Emit(ppc.Addi(3, 3, 1))
	leaf.Emit(ppc.Blr())
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// bench is the program TestTraceSlotsCutSites runs: long enough that a
// run crosses several journal drains.
const bench = "perl"

// hottestLongEntry is the rank of the most-expanded dictionary entry of
// three or more instructions in bench's nibble image.
func hottestLongEntry(t *testing.T) int {
	t.Helper()
	img, _ := compress(t, bench, codeword.Nibble)
	cpu, err := NewMachine(img)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := img.GuestSymTab()
	if err != nil {
		t.Fatal(err)
	}
	gp := guestprof.New(sym)
	gp.Attach(cpu)
	if _, err := cpu.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	hot := -1
	for r, n := range gp.Heat() {
		if len(img.Entries[r].Words) >= 3 && (hot < 0 || n > gp.Heat()[hot]) {
			hot = r
		}
	}
	if hot < 0 {
		t.Fatal("no entry of three or more instructions executed")
	}
	return hot
}

// hostileProgram links emit followed by an exit.
func hostileProgram(t *testing.T, emit ...uint32) *program.Program {
	t.Helper()
	b := program.NewBuilder("hostile")
	f := b.Func("main")
	for _, w := range emit {
		f.Emit(w)
	}
	f.Emit(ppc.Li(0, machine.SysExit))
	f.Emit(ppc.Sc())
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStepSlotsFallThrough pins what Step's one-slot batches tell a
// TraceSlots consumer about sequential flow: when an instruction takes no
// branch, the next delivered slot is at its slot's Next — for an
// instruction inside an expansion, the codeword's own address, where the
// expansion continues.
func TestStepSlotsFallThrough(t *testing.T) {
	img, _ := compress(t, bench, codeword.Nibble)
	cpu, err := NewMachine(img)
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		addr, next uint32
		branch     machine.BranchKind
	}
	var steps []step
	cpu.TraceSlots = func(pd *machine.Predecode, slots []uint32, cut int) {
		if len(slots) != 1 || len(pd.Slots) != 1 || cut != 0 {
			t.Fatalf("Step delivered %d slots of a %d-slot table, cut %d", len(slots), len(pd.Slots), cut)
		}
		steps = append(steps, step{addr: pd.Base, next: pd.Slots[0].Next})
	}
	cpu.TraceStep = func(si machine.StepInfo) { steps[len(steps)-1].branch = si.Branch }
	if _, err := cpu.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	if int64(len(steps)) != cpu.Stats.Steps || cpu.Stats.Expanded == 0 {
		t.Fatalf("%d deliveries for %d steps (%d expanded)", len(steps), cpu.Stats.Steps, cpu.Stats.Expanded)
	}
	for k := 1; k < len(steps); k++ {
		if prev := steps[k-1]; prev.branch == machine.BranchNone && steps[k].addr != prev.next {
			t.Fatalf("step %d at %#x took no branch, but step %d is at %#x, not its slot's Next %#x",
				k-1, prev.addr, k, steps[k].addr, prev.next)
		}
	}
}
