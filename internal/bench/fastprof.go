package bench

import (
	"fmt"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/machine"
	"repro/internal/stats"
)

func init() {
	Experiments = append(Experiments, Runner{
		ID:     "fastprof",
		Title:  "Ext. P: sampled fast-path profiling — accuracy and overhead",
		Run:    ExtFastProf,
		Timing: true,
	})
}

// SampledRun is one sampled execution: the flat profile and heat map
// reconstructed from the fetch journal, the machine's fast-path telemetry,
// and the recorder snapshot carrying the machine.fastpath.* counters.
type SampledRun struct {
	Profile *guestprof.Profile
	Heat    []int64
	Fast    machine.FastStats
	Steps   int64
	Stats   stats.Snapshot
}

// sampledRun executes a CPU to completion with the sampled profiler on its
// fetch journal — the machine stays on the fused fast path throughout.
func sampledRun(mk func() (*machineCPU, error), sym *guestprof.SymTab, name string) (SampledRun, error) {
	cpu, err := mk()
	if err != nil {
		return SampledRun{}, err
	}
	rec := stats.New()
	sp := guestprof.NewSampled(sym)
	cpu.Record = rec
	cpu.TraceSlots = sp.ObserveSlots
	if _, err = cpu.Run(execBudget); err != nil {
		return SampledRun{}, err
	}
	return SampledRun{
		Profile: sp.Profile(name),
		Heat:    sp.Heat(),
		Fast:    cpu.Fast,
		Steps:   cpu.Stats.Steps,
		Stats:   rec.Snapshot(),
	}, nil
}

// SampledProfilePair runs one benchmark's compressed image twice — once
// under the exact Step-path profiler, once under the sampled profiler on
// the fast path — so accuracy checks and the fastprof experiment share one
// wiring.
func SampledProfilePair(c *Corpus, name string, opt core.Options) (GuestRun, SampledRun, error) {
	img, err := c.Image(name, opt)
	if err != nil {
		return GuestRun{}, SampledRun{}, err
	}
	sym, err := img.GuestSymTab()
	if err != nil {
		return GuestRun{}, SampledRun{}, err
	}
	mk := func() (*machineCPU, error) { return core.NewMachine(img) }
	exact, err := profiledRun(mk, sym, name)
	if err != nil {
		return GuestRun{}, SampledRun{}, fmt.Errorf("bench: exact profile of %s: %w", name, err)
	}
	sampled, err := sampledRun(mk, sym, name)
	if err != nil {
		return GuestRun{}, SampledRun{}, fmt.Errorf("bench: sampled profile of %s: %w", name, err)
	}
	return exact, sampled, nil
}

// flatCycles indexes a profile's flat cycle counts by function name.
func flatCycles(p *guestprof.Profile) map[string]int64 {
	m := make(map[string]int64, len(p.Funcs))
	for _, f := range p.Funcs {
		m[f.Name] = f.Flat.Cycles
	}
	return m
}

// FlatCycleDelta sums |exact - sampled| flat cycles over the union of
// functions — the L1 distance between the two attributions, 0 when the
// sampled profile is exact.
func FlatCycleDelta(exact, sampled *guestprof.Profile) int64 {
	e, s := flatCycles(exact), flatCycles(sampled)
	var d int64
	for name, ec := range e {
		dc := ec - s[name]
		if dc < 0 {
			dc = -dc
		}
		d += dc
	}
	for name, sc := range s {
		if _, ok := e[name]; !ok {
			d += sc
		}
	}
	return d
}

// ExtFastProf publishes, per benchmark, how the sampled fast-path
// profile compares to the exact Step-path profiler — coverage, hottest
// function agreement, total attribution distance — and what sampling
// costs in wall time over the bare fast path. Rows run sequentially, like
// every timing experiment: parallel timing on a shared pool would measure
// contention.
func ExtFastProf(c *Corpus) (*Table, error) {
	opt := core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4}
	t := &Table{
		ID:      "fastprof",
		Title:   "Ext. P: sampled fast-path profiling vs exact profiler (nibble scheme, entries ≤ 4)",
		Columns: []string{"bench", "steps", "coverage", "hottest", "exact flat%", "sampled flat%", "Σ|Δcycles|", "bare ns/run", "sampled ns/run", "overhead"},
		Note: "timing experiment (host-dependent, excluded from the deterministic " +
			"default set); sampled attribution is flat-only but exact per covered " +
			"step, so Σ|Δcycles| counts only instrumented-path steps; overhead is " +
			"sampled/bare wall time on the fused loop, CI-gated at 1.10",
	}
	for _, name := range c.Names() {
		exact, sampled, err := SampledProfilePair(c, name, opt)
		if err != nil {
			return nil, err
		}
		cov := sampled.Fast.Coverage(sampled.Steps)
		hot := exact.Profile.Funcs[0]
		shot, _ := sampled.Profile.FuncByName(hot.Name)
		img, err := c.Image(name, opt)
		if err != nil {
			return nil, err
		}
		sym, err := img.GuestSymTab()
		if err != nil {
			return nil, err
		}
		bare, err := core.NewMachine(img)
		if err != nil {
			return nil, err
		}
		btime, _, err := measureRuns(bare)
		if err != nil {
			return nil, fmt.Errorf("fastprof: bare %s: %w", name, err)
		}
		timed, err := core.NewMachine(img)
		if err != nil {
			return nil, err
		}
		timed.Record = stats.New()
		timed.TraceSlots = guestprof.NewSampled(sym).ObserveSlots
		stime, _, err := measureRuns(timed)
		if err != nil {
			return nil, fmt.Errorf("fastprof: sampled %s: %w", name, err)
		}
		t.AddRow(name,
			fmt.Sprint(sampled.Steps),
			fmt.Sprintf("%.4f", cov),
			hot.Name,
			fmt.Sprintf("%.1f", 100*float64(hot.Flat.Cycles)/float64(exact.Profile.Total.Cycles)),
			fmt.Sprintf("%.1f", 100*float64(shot.Flat.Cycles)/float64(sampled.Profile.Total.Cycles)),
			fmt.Sprint(FlatCycleDelta(exact.Profile, sampled.Profile)),
			fmt.Sprint(btime.Nanoseconds()),
			fmt.Sprint(stime.Nanoseconds()),
			fmt.Sprintf("%.2f", float64(stime)/float64(btime)),
		)
	}
	return t, nil
}
