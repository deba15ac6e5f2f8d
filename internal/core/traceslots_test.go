package core

import (
	"cmp"
	"errors"
	"maps"
	"slices"
	"testing"

	"repro/internal/codeword"
	"repro/internal/guestprof"
	"repro/internal/machine"
	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/synth"
)

// TestTraceSlotsCutSites covers every place the fused loop ends an
// expansion early or hands it to Step — an exit sc, a fault and a taken
// branch inside a dictionary entry, a budget that lands mid-expansion —
// plus a run with
// TraceFetch and TraceSlots both attached, on a native and a nibble
// machine. The sampled profiler on TraceSlots must account for exactly
// Fast.Steps, and at full coverage its flat counts and heat must equal the
// exact Step-path profiler's; with both hooks attached, TraceFetch must
// still see the Step path's sequence.
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
		fetch  bool   // attach TraceFetch beside TraceSlots
		cut    bool   // an expansion must end early
	}{
		{"native/exit", native(p), whole, "exit", false, false},
		{"native/fault", native(hostileProgram(t, faultPair...)), whole, "fault", false, false},
		{"native/budget", native(p), machine.JournalLen + 5, "budget", false, false},
		{"native/both hooks", native(p), whole, "exit", true, false},
		{"nibble/exit in entry", nibble(exitPair...), whole, "exit", false, true},
		{"nibble/fault in entry", nibble(faultPair...), whole, "fault", false, true},
		// Returning from the entry's head runs the program off its rails,
		// so only the budget bounds it.
		{"nibble/branch in entry", nibble(ppc.Blr()), 200_000, "", false, true},
		{"nibble/budget mid-expansion", nibble(), 0, "budget", false, true},
		{"nibble/both hooks", nibble(), whole, "exit", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref, sym := tc.build(t)
			budget, steps := tc.budget, int64(0)
			gp := guestprof.New(sym)
			if budget == 0 {
				ref.TraceStep = func(si machine.StepInfo) {
					if si.MemBytes == 0 && budget <= machine.JournalLen {
						budget = steps
					}
					steps++
				}
			}
			gp.Attach(ref)
			var refFetches, fetches fetchLog
			ref.TraceFetch = refFetches.hook
			_, refErr := ref.Run(cmp.Or(budget, whole))
			if tc.budget == 0 {
				if budget <= machine.JournalLen {
					t.Fatal("no expansion continues past the first journal drain")
				}
				// Rerun the reference to the budget found.
				ref, _ = tc.build(t)
				gp = guestprof.New(sym)
				gp.Attach(ref)
				refFetches = nil
				ref.TraceFetch = refFetches.hook
				_, refErr = ref.Run(budget)
			}

			cpu, _ := tc.build(t)
			sp := guestprof.NewSampled(sym)
			cuts := 0
			cpu.TraceSlots = func(pd *machine.Predecode, slots []uint32, cut int) {
				if cut > 0 {
					cuts++
				}
				sp.ObserveSlots(pd, slots, cut)
			}
			if tc.fetch {
				cpu.TraceFetch = fetches.hook
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
			if cpu.Stats != ref.Stats {
				t.Fatalf("stats %+v, Step path %+v", cpu.Stats, ref.Stats)
			}
			if tc.cut && cuts == 0 {
				t.Fatal("no expansion ended early")
			}
			prof := sp.Profile(bench)
			if prof.Total.Cycles != cpu.Fast.Steps {
				t.Fatalf("observed slots account for %d steps, fast path ran %d (%s)",
					prof.Total.Cycles, cpu.Fast.Steps, cpu.Fast.BailSummary())
			}
			if cpu.Fast.Steps != cpu.Stats.Steps {
				t.Fatalf("partial coverage %d of %d steps (%s)", cpu.Fast.Steps, cpu.Stats.Steps, cpu.Fast.BailSummary())
			}
			if got, want := flatByName(prof), flatByName(gp.Profile(bench)); !maps.Equal(got, want) {
				t.Fatalf("sampled flat profile %v, exact %v", got, want)
			}
			if got, want := trimZeros(sp.Heat()), trimZeros(gp.Heat()); !slices.Equal(got, want) {
				t.Fatalf("sampled heat %v, exact %v", got, want)
			}
			if tc.fetch && !slices.Equal(fetches, refFetches) {
				t.Fatalf("TraceFetch saw %d accesses beside TraceSlots, Step path %d", len(fetches), len(refFetches))
			}
		})
	}
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

// flatByName indexes a profile's non-zero flat counts by function name.
func flatByName(p *guestprof.Profile) map[string]guestprof.Counts {
	m := map[string]guestprof.Counts{}
	for _, f := range p.Funcs {
		if f.Flat != (guestprof.Counts{}) {
			m[f.Name] = f.Flat
		}
	}
	return m
}

// trimZeros drops a heat map's trailing zero ranks.
func trimZeros(h []int64) []int64 {
	for len(h) > 0 && h[len(h)-1] == 0 {
		h = h[:len(h)-1]
	}
	return h
}
