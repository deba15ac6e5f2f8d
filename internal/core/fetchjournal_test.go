package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/codeword"
	"repro/internal/machine"
	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/synth"
)

// fetchLog records a TraceFetch sequence, one (addr, nbytes) pair packed
// per access.
type fetchLog []uint64

func (l *fetchLog) hook(addr uint32, nbytes int) {
	*l = append(*l, uint64(addr)<<32|uint64(uint32(nbytes)))
}

// journalRun is one Run's observable outcome: the error text, the
// counters, and the fetch sequence TraceFetch received.
type journalRun struct {
	err     string
	stats   machine.Stats
	fetches fetchLog
}

// runLogged Resets cpu (when reset is set) and runs it for budget steps
// with a recording TraceFetch.
func runLogged(t *testing.T, cpu *machine.CPU, budget int64, reset bool) journalRun {
	t.Helper()
	if reset {
		if err := cpu.Reset(); err != nil {
			t.Fatal(err)
		}
	}
	var r journalRun
	cpu.TraceFetch = r.fetches.hook
	_, err := cpu.Run(budget)
	cpu.TraceFetch = nil
	if err != nil {
		r.err = err.Error()
	}
	r.stats = cpu.Stats
	return r
}

// sameRun reports the first difference between a fast-path run and its
// Step-path reference, "" when they agree.
func sameRun(fast, slow journalRun) string {
	if fast.err != slow.err {
		return fmt.Sprintf("error %q, Step path %q", fast.err, slow.err)
	}
	if fast.stats != slow.stats {
		return fmt.Sprintf("stats %+v, Step path %+v", fast.stats, slow.stats)
	}
	if len(fast.fetches) != len(slow.fetches) {
		return fmt.Sprintf("%d fetches delivered, Step path %d", len(fast.fetches), len(slow.fetches))
	}
	for i := range fast.fetches {
		if f, s := fast.fetches[i], slow.fetches[i]; f != s {
			return fmt.Sprintf("fetch %d = (%#x, %d), Step path (%#x, %d)",
				i, f>>32, uint32(f), s>>32, uint32(s))
		}
	}
	return ""
}

// TestFetchJournalMatchesStep: a TraceFetch hook on the fused fast loop
// (fed from the fetch journal) must see exactly the (addr, nbytes)
// sequence the instrumented Step path delivers, complete when Run
// returns — across whole runs, Reset+Run reruns, and step budgets that end
// on and around the journal's capacity or in the middle of a dictionary
// expansion — on every benchmark, native and through the dictionary
// codecs. A self-modifying program drains the journal before the slow
// path takes over.
func TestFetchJournalMatchesStep(t *testing.T) {
	const maxSteps = 200_000_000
	schemes := []codeword.Scheme{codeword.Baseline, codeword.OneByte, codeword.Nibble, codeword.Liao}
	crossed := false // some mid-expansion budget lies past the first drain
	for _, name := range synth.BenchmarkNames() {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		type machineBuild struct {
			label string
			build func() (*machine.CPU, error)
		}
		builds := []machineBuild{{"native", func() (*machine.CPU, error) { return machine.NewForProgram(p) }}}
		for _, scheme := range schemes {
			img, err := Compress(p.Clone(), Options{Scheme: scheme})
			if err != nil {
				t.Fatalf("%s/%v: %v", name, scheme, err)
			}
			builds = append(builds, machineBuild{scheme.String(), func() (*machine.CPU, error) { return NewMachine(img) }})
		}
		for _, b := range builds {
			label := name + "/" + b.label
			fast, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			slow, err := b.build()
			if err != nil {
				t.Fatal(err)
			}
			// TraceStep keeps the reference on the Step path and finds a
			// budget that ends inside an expansion: one whose next step
			// is a continuation, preferably past the first journal drain.
			var steps, midExp int64
			slow.TraceStep = func(si machine.StepInfo) {
				if si.MemBytes == 0 && (midExp == 0 || midExp <= machine.JournalLen) {
					midExp = steps
				}
				steps++
			}
			ref := runLogged(t, slow, maxSteps, false)
			if ref.err != "" {
				t.Fatalf("%s: reference run: %s", label, ref.err)
			}
			got := runLogged(t, fast, maxSteps, false)
			if d := sameRun(got, ref); d != "" {
				t.Fatalf("%s: whole run: %s", label, d)
			}
			if fast.Fast.Steps != fast.Stats.Steps {
				t.Fatalf("%s: TraceFetch knocked the run off the fast path (%s)", label, fast.Fast.BailSummary())
			}
			if d := sameRun(runLogged(t, fast, maxSteps, true), ref); d != "" {
				t.Fatalf("%s: Reset+Run rerun: %s", label, d)
			}
			budgets := []int64{1, machine.JournalLen - 1, machine.JournalLen, machine.JournalLen + 1}
			if midExp > 0 {
				budgets = append(budgets, midExp)
				crossed = crossed || midExp > machine.JournalLen
			} else if b.label != "native" {
				t.Fatalf("%s: no expansion continuation executed", label)
			}
			for _, budget := range budgets {
				want := runLogged(t, slow, budget, true)
				if d := sameRun(runLogged(t, fast, budget, true), want); d != "" {
					t.Fatalf("%s: budget %d: %s", label, budget, d)
				}
				// A budget at or past the program's length lets it exit.
				if cut := budget < ref.stats.Steps; cut != (want.err != "") || fast.Fast.Steps != min(budget, ref.stats.Steps) {
					t.Fatalf("%s: budget %d: error %q, fast steps %d", label, budget, want.err, fast.Fast.Steps)
				}
			}
		}
	}
	if !crossed {
		t.Fatal("no mid-expansion budget lies past the first journal drain")
	}

	t.Run("self-modified text", func(t *testing.T) {
		p := selfModifyingProgram(t)
		fast, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		slow.TraceStep = func(machine.StepInfo) {}
		want := runLogged(t, slow, 100_000, false)
		got := runLogged(t, fast, 100_000, false)
		if d := sameRun(got, want); d != "" {
			t.Fatal(d)
		}
		if ok, st := fast.Exited(); !ok || st != 42 {
			t.Fatalf("exit %v/%d, want the patched status 42", ok, st)
		}
		if fast.Fast.Bails[machine.BailSelfModifiedText] != 1 ||
			fast.Fast.Steps <= machine.JournalLen || fast.Fast.Steps == fast.Stats.Steps {
			t.Fatalf("want a self_modified_text bail after a journal drain, got %+v of %d steps",
				fast.Fast, fast.Stats.Steps)
		}
	})

	t.Run("bounded lag", func(t *testing.T) {
		// Deliveries trail execution by at most one journal: the loop
		// drains at the journal's capacity instead of letting it grow.
		// (The hook reads CPU state only to test that bound.)
		img, _ := compress(t, "perl", codeword.Nibble)
		cpu, err := NewMachine(img)
		if err != nil {
			t.Fatal(err)
		}
		var delivered, maxLag int64
		cpu.TraceFetch = func(uint32, int) {
			maxLag = max(maxLag, cpu.Stats.MemFetches-delivered)
			delivered++
		}
		if _, err := cpu.Run(maxSteps); err != nil {
			t.Fatal(err)
		}
		if cpu.Stats.MemFetches < 3*machine.JournalLen || delivered != cpu.Stats.MemFetches {
			t.Fatalf("%d deliveries for %d memory fetches", delivered, cpu.Stats.MemFetches)
		}
		if maxLag > machine.JournalLen {
			t.Fatalf("deliveries trailed execution by %d fetches, journal holds %d", maxLag, machine.JournalLen)
		}
	})

	t.Run("dictionary in memory", func(t *testing.T) {
		// DictInMemoryFetches must replay a run as the same traffic however
		// its slots are delivered: the fused loop's journal, a Reset+Run
		// rerun, or Runs chunked so that budgets park the frontend
		// mid-expansion must each equal the replay of Step's slots.
		const chunk = 7
		forEachDictImage(t, func(label string, img *Image, ref dictReplayRun) {
			var fused journalRun
			fast := dictReplay(t, img, &fused)
			runReplay(t, label, fast, &fused, maxSteps)
			if fast.Fast.Steps != fast.Stats.Steps {
				t.Fatalf("%s: the replay knocked the run off the fast path (%s)", label, fast.Fast.BailSummary())
			}
			if d := sameRun(fused, ref.journalRun); d != "" {
				t.Fatalf("%s: fused run: %s", label, d)
			}
			if err := fast.Reset(); err != nil {
				t.Fatal(err)
			}
			fused.fetches = fused.fetches[:0]
			runReplay(t, label, fast, &fused, maxSteps)
			if d := sameRun(fused, ref.journalRun); d != "" {
				t.Fatalf("%s: Reset+Run rerun: %s", label, d)
			}

			var chunked journalRun
			cpu := dictReplay(t, img, &chunked)
			fe := cpu.Frontend().(machine.PredecodedFrontend)
			parked := false
			for ok := false; !ok; ok, _ = cpu.Exited() {
				_, err := cpu.Run(cpu.Stats.Steps + chunk)
				var f *machine.Fault
				if errors.As(err, &f) || cpu.Stats.Steps > ref.stats.Steps {
					t.Fatalf("%s: chunked run at step %d: %v", label, cpu.Stats.Steps, err)
				}
				parked = parked || fe.Predecode() == nil
			}
			if !parked {
				t.Fatalf("%s: no budget of the chunked run split an expansion", label)
			}
			chunked.stats = cpu.Stats
			if d := sameRun(chunked, ref.journalRun); d != "" {
				t.Fatalf("%s: chunked run: %s", label, d)
			}
		})
	})
}

// dictBase is where the memory-resident dictionary tests place the
// dictionary.
const dictBase = 0x0080_0000

// dictReplayRun is one run of img with its dictionary replayed in memory
// at dictBase: the accesses DictInMemoryFetches reported, and the
// expansions begun when the run took the Step path.
type dictReplayRun struct {
	journalRun
	begun int64
}

// forEachDictImage calls f on every benchmark compressed under every
// dictionary codec, with the run of each taken on the Step path (TraceStep
// attached) as the reference.
func forEachDictImage(t *testing.T, f func(label string, img *Image, ref dictReplayRun)) {
	t.Helper()
	const maxSteps = 200_000_000
	schemes := []codeword.Scheme{codeword.Baseline, codeword.OneByte, codeword.Nibble, codeword.Liao}
	for _, name := range synth.BenchmarkNames() {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range schemes {
			label := name + "/" + scheme.String()
			img, err := Compress(p.Clone(), Options{Scheme: scheme})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var ref dictReplayRun
			slow := dictReplay(t, img, &ref.journalRun)
			slow.TraceStep = func(si machine.StepInfo) {
				if si.EntryLen > 0 {
					ref.begun++
				}
			}
			runReplay(t, label, slow, &ref.journalRun, maxSteps)
			f(label, img, ref)
		}
	}
}

// dictReplay builds a machine for img whose TraceSlots replays its run into
// r as memory-resident dictionary traffic.
func dictReplay(t *testing.T, img *Image, r *journalRun) *machine.CPU {
	t.Helper()
	cpu, err := NewMachine(img)
	if err != nil {
		t.Fatal(err)
	}
	cpu.TraceSlots = DictInMemoryFetches(img, dictBase, r.fetches.hook)
	return cpu
}

// runReplay runs cpu to budget and records its counters in r.
func runReplay(t *testing.T, label string, cpu *machine.CPU, r *journalRun, budget int64) {
	t.Helper()
	if _, err := cpu.Run(budget); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	r.stats = cpu.Stats
}

// TestFrontendDictInMemoryAccounting: DictInMemoryFetches must account for
// a run with its dictionary in memory, on every benchmark under every
// dictionary codec: one 4-byte read inside the dictionary per instruction
// the dictionary supplied (Stats.Expanded plus the expansions begun), so
// the in-memory bytes are FetchedBytes plus 4 per read.
func TestFrontendDictInMemoryAccounting(t *testing.T) {
	forEachDictImage(t, func(label string, img *Image, ref dictReplayRun) {
		dictEnd := uint32(dictBase)
		for _, e := range img.Entries {
			dictEnd += uint32(4 * len(e.Words))
		}
		var reads, traffic int64
		for _, f := range ref.fetches {
			addr, n := uint32(f>>32), int64(uint32(f))
			traffic += n
			if addr >= dictBase {
				if n != 4 || addr >= dictEnd {
					t.Fatalf("%s: dictionary access (%#x, %d) outside [%#x,%#x)", label, addr, n, dictBase, dictEnd)
				}
				reads++
			}
		}
		if st := ref.stats; ref.begun == 0 || reads != st.Expanded+ref.begun || traffic != st.FetchedBytes+4*reads {
			t.Fatalf("%s: %d dictionary reads, %d bytes for %d expansions of %d expanded instructions, %d fetched bytes",
				label, reads, traffic, ref.begun, st.Expanded, st.FetchedBytes)
		}
	})
}

// selfModifyingProgram counts a loop past the journal's capacity, then
// stores li r3,42 over the li r3,1 that follows and exits with r3: the
// fast loop must bail on the store and the Step path execute the patch.
func selfModifyingProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("selfmod")
	f := b.Func("main")
	const patchIdx = 9
	patchAddr := uint32(program.DefaultTextBase + 4*patchIdx)
	newWord := ppc.Li(3, 42)
	f.Emit(ppc.Li(4, machine.JournalLen))
	f.Emit(ppc.Mtctr(4))
	f.Label("loop")
	f.Emit(ppc.Addi(3, 3, 1))
	f.Branch(ppc.Bdnz(0), "loop")
	f.Emit(ppc.Lis(9, int32(int16(patchAddr>>16))))
	f.Emit(ppc.Ori(9, 9, int32(patchAddr&0xFFFF)))
	f.Emit(ppc.Lis(10, int32(int16(newWord>>16))))
	f.Emit(ppc.Ori(10, 10, int32(newWord&0xFFFF)))
	f.Emit(ppc.Stw(10, 0, 9))
	f.Emit(ppc.Li(3, 1)) // patched to li r3,42 before it executes
	f.Emit(ppc.Li(0, machine.SysExit))
	f.Emit(ppc.Sc())
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}
