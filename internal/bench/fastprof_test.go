package bench

import (
	"testing"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/stats"
)

// TestSampledProfilerAccuracy pins the sampled profiler's contract on
// every benchmark: cycle totals are conserved (sampled total == fast-path
// steps), coverage is essentially complete (the acceptance floor is 0.99;
// these runs never leave the fused loop), and at full coverage the
// reconstructed flat profile and per-rank heat map equal the exact
// Step-path profiler's, counter for counter — attribution by slot address
// is exact, not approximate.
func TestSampledProfilerAccuracy(t *testing.T) {
	opt := core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4}
	for _, name := range sharedCorpus.Names() {
		exact, sampled, err := SampledProfilePair(sharedCorpus, name, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cov := sampled.Fast.Coverage(sampled.Steps)
		if cov < 0.99 {
			t.Errorf("%s: fastpath coverage %.4f < 0.99 (bails: %s)",
				name, cov, sampled.Fast.BailSummary())
		}
		if sampled.Profile.Total.Cycles != sampled.Fast.Steps {
			t.Errorf("%s: sampled total %d cycles, fast path executed %d (conservation)",
				name, sampled.Profile.Total.Cycles, sampled.Fast.Steps)
		}
		if exact.Profile.Total.Cycles != sampled.Steps {
			t.Errorf("%s: exact total %d cycles, run executed %d steps",
				name, exact.Profile.Total.Cycles, sampled.Steps)
		}
		// Every uncovered step can perturb the L1 distance by at most 2
		// (one missing sampled cycle, one extra exact cycle elsewhere); at
		// full coverage the distance must be exactly zero.
		uncovered := sampled.Steps - sampled.Fast.Steps
		if d := FlatCycleDelta(exact.Profile, sampled.Profile); d > 2*uncovered {
			t.Errorf("%s: flat attribution distance %d with %d uncovered steps",
				name, d, uncovered)
		}
		if uncovered == 0 {
			compareFlat(t, name, exact.Profile, sampled.Profile)
			compareHeat(t, name, exact.Heat, sampled.Heat)
		} else {
			topOverlap(t, name, exact.Profile, sampled.Profile)
		}
		// The exported counters agree with the machine's own telemetry.
		if got := sampled.Stats.Counter("machine.fastpath.steps"); got != sampled.Fast.Steps {
			t.Errorf("%s: exported fastpath.steps %d, machine counted %d", name, got, sampled.Fast.Steps)
		}
	}
}

// TestSampledProfilerAccuracyNative runs the same comparison over the
// uncompressed frontend (raw 4-byte slots, no expansion) on a subset —
// the symbolization path differs, the contract does not.
func TestSampledProfilerAccuracyNative(t *testing.T) {
	for _, name := range []string{"compress", "perl"} {
		p, err := sharedCorpus.Program(name)
		if err != nil {
			t.Fatal(err)
		}
		sym := guestprof.NewProgramSymTab(p)
		exact, err := profiledRun(func() (*machineCPU, error) { return newNative(p) }, sym, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cpu, err := newNative(p)
		if err != nil {
			t.Fatal(err)
		}
		sp := guestprof.NewSampled(sym)
		cpu.Record = stats.New()
		cpu.TraceSlots = sp.ObserveSlots
		if _, err := cpu.Run(execBudget); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cpu.Fast.Steps != cpu.Stats.Steps {
			t.Fatalf("%s: native run left the fast path: %s", name, cpu.Fast.BailSummary())
		}
		prof := sp.Profile(name)
		if prof.Total.Cycles != exact.Profile.Total.Cycles {
			t.Errorf("%s: sampled %d cycles, exact %d", name, prof.Total.Cycles, exact.Profile.Total.Cycles)
		}
		compareFlat(t, name, exact.Profile, prof)
		if prof.Total.Expanded != 0 || prof.Total.Expansions != 0 {
			t.Errorf("%s: native profile reports expansion: %+v", name, prof.Total)
		}
	}
}

// compareFlat requires per-function flat counts to match exactly (zero-
// flat functions, which only the exact profiler's call tree surfaces, are
// skipped — the sampled profile is flat-only by design).
func compareFlat(t *testing.T, name string, exact, sampled *guestprof.Profile) {
	t.Helper()
	sm := map[string]guestprof.Counts{}
	for _, f := range sampled.Funcs {
		sm[f.Name] = f.Flat
	}
	n := 0
	for _, f := range exact.Funcs {
		if f.Flat == (guestprof.Counts{}) {
			continue
		}
		n++
		got, ok := sm[f.Name]
		if !ok {
			t.Errorf("%s: function %s missing from sampled profile", name, f.Name)
			continue
		}
		if got != f.Flat {
			t.Errorf("%s: %s flat: sampled %+v, exact %+v", name, f.Name, got, f.Flat)
		}
		delete(sm, f.Name)
	}
	if n == 0 {
		t.Errorf("%s: exact profile has no hot functions", name)
	}
	for extra := range sm {
		t.Errorf("%s: sampled profile invented function %s", name, extra)
	}
}

// compareHeat requires the two heat maps to agree rank for rank (a rank
// past the end of either map counts zero there).
func compareHeat(t *testing.T, name string, exact, sampled []int64) {
	t.Helper()
	var total int64
	for r := 0; r < max(len(exact), len(sampled)); r++ {
		var e, s int64
		if r < len(exact) {
			e = exact[r]
		}
		if r < len(sampled) {
			s = sampled[r]
		}
		if e != s {
			t.Errorf("%s: heat[%d]: sampled %d, exact %d", name, r, s, e)
		}
		total += e
	}
	if total == 0 {
		t.Errorf("%s: exact heat map is empty", name)
	}
}

// topOverlap is the weaker check for partially covered runs: the top-5
// hot sets must share at least 4 functions.
func topOverlap(t *testing.T, name string, exact, sampled *guestprof.Profile) {
	t.Helper()
	top := func(p *guestprof.Profile) map[string]bool {
		m := map[string]bool{}
		for i, f := range p.Funcs {
			if i == 5 {
				break
			}
			m[f.Name] = true
		}
		return m
	}
	e, s := top(exact), top(sampled)
	shared := 0
	for n := range e {
		if s[n] {
			shared++
		}
	}
	if want := len(e) - 1; shared < want {
		t.Errorf("%s: top-5 overlap %d/%d between exact and sampled", name, shared, len(e))
	}
}
