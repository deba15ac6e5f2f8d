package bench

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/guestprof/guestproftest"
	"repro/internal/machine"
	"repro/internal/stats"
)

// profiledBuild is one way to run a corpus program: a machine constructor
// and the symbol table its profile resolves through. dict marks a
// dictionary codec, whose heat map must not be empty.
type profiledBuild struct {
	enc  string
	mk   func() (*machineCPU, error)
	sym  *guestprof.SymTab
	dict bool
}

// TestSampledProfilerAccuracy pins the journal-fed guest profiler to its
// Step-fed oracle on every corpus program under every executable codec
// (the name predates the one profiler, when a flat sampled one read the
// journal). See journalMatchesStep for what is compared.
func TestSampledProfilerAccuracy(t *testing.T) {
	for _, name := range sharedCorpus.Names() {
		p, err := sharedCorpus.Program(name)
		if err != nil {
			t.Fatal(err)
		}
		var builds []profiledBuild
		for _, cd := range codec.Codecs() {
			if sc, ok := cd.(codec.Schemed); ok {
				img, err := sharedCorpus.Image(name, core.Options{Scheme: sc.Scheme(), MaxEntryLen: 4})
				if err != nil {
					t.Fatal(err)
				}
				sym, err := img.GuestSymTab()
				if err != nil {
					t.Fatal(err)
				}
				builds = append(builds, profiledBuild{cd.Name(), func() (*machineCPU, error) { return core.NewMachine(img) }, sym, true})
				continue
			}
			ci, err := cd.Compress(p, codec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ex, ok := ci.(codec.Executable); ok {
				builds = append(builds, profiledBuild{cd.Name(), ex.NewMachine, guestprof.NewProgramSymTab(p), false})
			}
		}
		for _, b := range builds {
			journalMatchesStep(t, name, b)
		}
	}
}

// TestSampledProfilerAccuracyNative is TestSampledProfilerAccuracy on the
// uncompressed machine (raw 4-byte slots, no expansion), whose profile
// must report no expansion at all.
func TestSampledProfilerAccuracyNative(t *testing.T) {
	for _, name := range sharedCorpus.Names() {
		p, err := sharedCorpus.Program(name)
		if err != nil {
			t.Fatal(err)
		}
		journalMatchesStep(t, name, profiledBuild{"native", func() (*machineCPU, error) { return newNative(p) }, guestprof.NewProgramSymTab(p), false})
	}
}

// journalMatchesStep runs b four ways — with and without an observed
// I-cache, fused and forced onto the Step path by a no-op TraceStep,
// whose one-slot batches must add up to the same profile — and demands
// each journal-fed profile equal the Step-fed oracle's (guestproftest.Same).
// Fused runs must never leave the fused loop, their profile must account
// for exactly the fused loop's steps, and the exported
// machine.fastpath.steps counter must agree with the machine's own.
func journalMatchesStep(t *testing.T, name string, b profiledBuild) {
	t.Helper()
	for _, mode := range []struct{ cached, stepped bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		what := fmt.Sprintf("%s/%s %+v", name, b.enc, mode)
		ref, err := b.mk()
		if err != nil {
			t.Fatal(err)
		}
		oracle := guestprof.New(b.sym)
		ref.TraceStep = oracle.Step
		cpu, err := b.mk()
		if err != nil {
			t.Fatal(err)
		}
		rec := stats.New()
		cpu.Record = rec
		gp := guestprof.New(b.sym)
		if mode.cached {
			ric, ic := guestproftest.NewCache(t), guestproftest.NewCache(t)
			ref.TraceFetch, cpu.TraceFetch = ric.Access, ic.Access
			oracle.ObserveCache(ric)
			gp.ObserveCache(ic)
		}
		gp.Attach(cpu)
		if mode.stepped {
			cpu.TraceStep = func(machine.StepInfo) {}
		}
		if _, err := ref.Run(execBudget); err != nil {
			t.Fatalf("%s: Step run: %v", what, err)
		}
		if _, err := cpu.Run(execBudget); err != nil {
			t.Fatalf("%s: journal run: %v", what, err)
		}
		guestproftest.Same(t, what, oracle, gp)
		prof := gp.Profile(name)
		if prof.Total.Cycles != cpu.Stats.Steps || cpu.Stats.Steps != ref.Stats.Steps {
			t.Fatalf("%s: profile total %d cycles, journal run %d steps, Step run %d", what, prof.Total.Cycles, cpu.Stats.Steps, ref.Stats.Steps)
		}
		if got := rec.Snapshot().Counter("machine.fastpath.steps"); got != cpu.Fast.Steps {
			t.Fatalf("%s: exported fastpath.steps %d, machine counted %d", what, got, cpu.Fast.Steps)
		}
		if !mode.stepped && (cpu.Fast.Steps != cpu.Stats.Steps || cpu.Fast.Bails[machine.BailHookAttached] != 0) {
			t.Fatalf("%s: profiled run left the fused loop: %d of %d steps (%s)",
				what, cpu.Fast.Steps, cpu.Stats.Steps, cpu.Fast.BailSummary())
		}
		if mode.cached && prof.Total.CacheMisses == 0 {
			t.Fatalf("%s: no cache misses attributed", what)
		}
		if b.enc == "native" && (prof.Total.Expanded != 0 || prof.Total.Expansions != 0) {
			t.Fatalf("%s: native profile reports expansion: %+v", what, prof.Total)
		}
		if b.dict && !slices.ContainsFunc(gp.Heat(), func(n int64) bool { return n > 0 }) {
			t.Fatalf("%s: empty heat map", what)
		}
	}
}
