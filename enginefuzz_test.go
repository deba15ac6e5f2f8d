package codedensity

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/guestprof/guestproftest"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/synth"
)

// FuzzFastPathDifferential pits the fused fast loop against the
// instrumented Step path over fuzzer-shaped programs, native and through
// every executable codec. The two engines share the one dispatch in
// runFast but nothing of their fetch plumbing or resolution — the fused
// loop reads instructions the table builder resolved, Step resolves each
// fetched word itself — so any table-construction bug (wrong successor,
// wrong expansion length, a mis-resolved operand, a counter charged
// differently) shows up as a divergence in output, exit status, or the
// Stats counters. The hooked
// machine counts TraceStep deliveries to prove the slow path actually ran.
// A third machine runs the fast path with a slot observer (TraceSlots) on
// its fetch journal: observation must not perturb any architectural
// result, and the delivered slots must account for the step count
// exactly. The same journal feeds a guest profiler, and the hooked
// machine's TraceStep feeds another: folded stacks, flat and cumulative
// counts and heat must be equal, which is where a conditional branch to
// its own fall-through and the bails to Step show up. The hooked and
// journaled machines also carry a recording TraceFetch, which keeps the
// journaled machine fused (fed from its fetch journal) while the hooked one
// delivers from Step: both must see the same (addr, nbytes) sequence.
// Every machine also carries a Record sink, which leaves the bare and
// journaled machines fused; all three must export the same execution
// counters.
// Finally each machine — native and every executable codec alike — is
// Reset and rerun, and must repeat its first run exactly: dirty-page Reset
// restores only the pages the run stored to, so a missed page shows up as
// a rerun that reads a stale byte.
func FuzzFastPathDifferential(f *testing.F) {
	f.Add(int64(7), uint16(900))
	f.Add(int64(42), uint16(2500))
	f.Add(int64(1997), uint16(1400))
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		prof, err := synth.ProfileFor("compress")
		if err != nil {
			t.Fatal(err)
		}
		prof.Seed = seed
		prof.TargetWords = 600 + int(size)%2400
		p, err := synth.GenerateProfile(prof)
		if err != nil {
			t.Skip(err)
		}

		fastN, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		slowN, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		jourN, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		comparePaths(t, "native", guestprof.NewProgramSymTab(p), fastN, slowN, jourN)

		for _, cd := range codec.Codecs() {
			img, err := cd.Compress(p, codec.Options{})
			if err != nil {
				t.Fatalf("%s: compress: %v", cd.Name(), err)
			}
			ex, ok := img.(codec.Executable)
			if !ok {
				continue // size comparators have nothing to execute
			}
			fast, err := ex.NewMachine()
			if err != nil {
				t.Fatalf("%s: new machine: %v", cd.Name(), err)
			}
			slow, err := ex.NewMachine()
			if err != nil {
				t.Fatalf("%s: new machine: %v", cd.Name(), err)
			}
			jour, err := ex.NewMachine()
			if err != nil {
				t.Fatalf("%s: new machine: %v", cd.Name(), err)
			}
			sym := guestprof.NewProgramSymTab(p)
			if di, ok := img.(*core.Image); ok {
				if sym, err = di.GuestSymTab(); err != nil {
					t.Fatalf("%s: symbols: %v", cd.Name(), err)
				}
			}
			comparePaths(t, cd.Name(), sym, fast, slow, jour)
		}
	})
}

// slotSum is the fuzz observer on TraceSlots: it only totals the
// instructions the delivered fetches supplied (each slot's EntryLen, less
// the batch's cut), so conservation against the machine's own step
// counter can be asserted after the run.
type slotSum struct{ steps int64 }

func (s *slotSum) observe(pd *machine.Predecode, slots []uint32, cut int) {
	for _, i := range slots {
		s.steps += int64(pd.Slots[i&^machine.SlotTaken].EntryLen)
	}
	s.steps -= int64(cut)
}

// fetchTrace records a TraceFetch sequence.
type fetchTrace []uint64

func (f *fetchTrace) hook(addr uint32, nbytes int) {
	*f = append(*f, uint64(addr)<<32|uint64(uint32(nbytes)))
}

// comparePaths runs fast with only a recorder, slow with a hook attached,
// and journaled with a slot observer and a profiler attached, then demands
// identical errors, status, output, counters, recorded counters, fetch
// traces and profiles (symbolized through sym) — and that the observed
// slots account for every step.
func comparePaths(t *testing.T, name string, sym *guestprof.SymTab, fast, slow, journaled *machine.CPU) {
	t.Helper()
	const maxSteps = 50_000_000
	var hooked int64
	var slowFetches, journalFetches fetchTrace
	fastRec, slowRec, journalRec := stats.New(), stats.New(), stats.New()
	fast.Record = fastRec
	slow.Record = slowRec
	oracle := guestprof.New(sym)
	slow.TraceStep = func(si machine.StepInfo) {
		hooked++
		oracle.Step(si)
	}
	slow.TraceFetch = slowFetches.hook
	obs := &slotSum{}
	journaled.Record = journalRec
	journaled.TraceFetch = journalFetches.hook
	gp := guestprof.New(sym)
	gp.Attach(journaled)
	profile := journaled.TraceSlots
	journaled.TraceSlots = func(pd *machine.Predecode, slots []uint32, cut int) {
		obs.observe(pd, slots, cut)
		profile(pd, slots, cut)
	}
	fs, ferr := fast.Run(maxSteps)
	ss, serr := slow.Run(maxSteps)
	ps, perr := journaled.Run(maxSteps)
	firsts := []firstRun{
		{"fast", fast, fs, ferr, bytes.Clone(fast.Output()), fast.Stats},
		{"slow", slow, ss, serr, bytes.Clone(slow.Output()), slow.Stats},
		{"journaled", journaled, ps, perr, bytes.Clone(journaled.Output()), journaled.Stats},
	}
	if (ferr == nil) != (serr == nil) || (ferr != nil && ferr.Error() != serr.Error()) {
		t.Fatalf("%s: error divergence: fast %v, slow %v", name, ferr, serr)
	}
	if (ferr == nil) != (perr == nil) || (ferr != nil && ferr.Error() != perr.Error()) {
		t.Fatalf("%s: error divergence: fast %v, journaled %v", name, ferr, perr)
	}
	if hooked != slow.Stats.Steps {
		t.Fatalf("%s: TraceStep fired %d times for %d steps", name, hooked, slow.Stats.Steps)
	}
	if obs.steps != journaled.Stats.Steps {
		t.Fatalf("%s: observed slots hold %d steps, the run executed %d",
			name, obs.steps, journaled.Stats.Steps)
	}
	guestproftest.Same(t, name, oracle, gp)
	if !slices.Equal(slowFetches, journalFetches) {
		t.Fatalf("%s: fetch traces diverged: %d accesses from Step, %d from the journal",
			name, len(slowFetches), len(journalFetches))
	}
	// Unless the bare run fell back to Step, the fetch hook must leave the
	// journaled run entirely on the fused loop.
	bailed := fast.Fast.Bails[machine.BailFaultSlot] + fast.Fast.Bails[machine.BailOffTable] +
		fast.Fast.Bails[machine.BailFrontendRefused]
	if bailed == 0 && journaled.Fast.Steps != journaled.Stats.Steps {
		t.Fatalf("%s: fetch hook knocked the journaled run off the fast path: %d of %d steps (%s)",
			name, journaled.Fast.Steps, journaled.Stats.Steps, journaled.Fast.BailSummary())
	}
	if ferr != nil {
		// Matching faults: no architectural result to compare, but the
		// fault must repeat after Reset.
		checkReruns(t, name, firsts, maxSteps)
		return
	}
	if fs != ss {
		t.Fatalf("%s: exit status fast %d, slow %d", name, fs, ss)
	}
	if ps != fs {
		t.Fatalf("%s: exit status fast %d, journaled %d", name, fs, ps)
	}
	if !bytes.Equal(fast.Output(), slow.Output()) {
		t.Fatalf("%s: output diverged (%d vs %d bytes)", name, len(fast.Output()), len(slow.Output()))
	}
	if !bytes.Equal(fast.Output(), journaled.Output()) {
		t.Fatalf("%s: journaled output diverged (%d vs %d bytes)", name, len(fast.Output()), len(journaled.Output()))
	}
	if fast.Stats != slow.Stats {
		t.Fatalf("%s: stats diverged:\nfast %+v\nslow %+v", name, fast.Stats, slow.Stats)
	}
	if fast.Stats != journaled.Stats {
		t.Fatalf("%s: the journal perturbed stats:\nfast      %+v\njournaled %+v", name, fast.Stats, journaled.Stats)
	}
	fsnap, ssnap, psnap := fastRec.Snapshot(), slowRec.Snapshot(), journalRec.Snapshot()
	for _, c := range []string{"machine.steps", "machine.expanded", "machine.fetched_bytes", "machine.mem_fetches"} {
		f, s, p := fsnap.Counter(c), ssnap.Counter(c), psnap.Counter(c)
		if f != s || f != p {
			t.Fatalf("%s: recorded %s diverged: fast %d, slow %d, journaled %d", name, c, f, s, p)
		}
	}
	if fsnap.Counter("machine.steps") != fast.Stats.Steps {
		t.Fatalf("%s: recorded %d steps, Stats.Steps %d", name, fsnap.Counter("machine.steps"), fast.Stats.Steps)
	}
	checkReruns(t, name, firsts, maxSteps)
}

// firstRun is one machine's first-run result, kept for the rerun check.
type firstRun struct {
	path   string
	cpu    *machine.CPU
	status int32
	err    error
	out    []byte
	stats  machine.Stats
}

// checkReruns Resets and reruns each machine and demands it repeat its
// first run: error, status, output and Stats.
func checkReruns(t *testing.T, name string, firsts []firstRun, maxSteps int64) {
	t.Helper()
	for _, f := range firsts {
		if err := f.cpu.Reset(); err != nil {
			t.Fatalf("%s/%s: Reset: %v", name, f.path, err)
		}
		st, err := f.cpu.Run(maxSteps)
		if (err == nil) != (f.err == nil) || (err != nil && err.Error() != f.err.Error()) {
			t.Fatalf("%s/%s: rerun error %v, first run %v", name, f.path, err, f.err)
		}
		if st != f.status {
			t.Fatalf("%s/%s: rerun exited %d, first run %d", name, f.path, st, f.status)
		}
		if !bytes.Equal(f.cpu.Output(), f.out) {
			t.Fatalf("%s/%s: rerun output diverged (%d vs %d bytes)", name, f.path, len(f.cpu.Output()), len(f.out))
		}
		if f.cpu.Stats != f.stats {
			t.Fatalf("%s/%s: rerun stats diverged:\nfirst %+v\nrerun %+v", name, f.path, f.stats, f.cpu.Stats)
		}
	}
}
