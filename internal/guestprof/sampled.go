package guestprof

import "repro/internal/machine"

// SampledProfiler reconstructs a flat per-function guest profile from the
// fast path's drained per-slot traffic (machine.EnableEpochSampling),
// without ever forcing the machine off the fused loop.
//
// Attribution is exact for every step the fast loop supplied: each
// instruction — including dictionary-expansion continuations — is
// attributed to the fetch address of its slot, which is precisely the CIA
// the exact Step-path profiler sees for the same instructions (all
// continuations of a codeword share its address). So on a run the fast
// loop covers fully, the sampled flat profile equals the exact profiler's
// flat profile, counter for counter; steps executed on the instrumented
// path are the only loss, and FastStats.Coverage reports their share.
// What sampling cannot see is the call stack, so profiles are flat-only
// (each function's Cum equals its Flat), nor the per-function fetch
// stream, so CacheMisses stays zero — a cache on TraceFetch still runs
// fused, but its misses are charged to no function.
type SampledProfiler struct {
	sym  *SymTab
	flat []Counts // index fn+1; 0 is the unknown function
	heat []int64  // dictionary-entry fetches by rank

	// funcOf memoizes per-table slot-to-function resolution, so steady
	// state does one array read per touched slot per epoch.
	funcOf map[*machine.Predecode][]int32
}

var _ machine.EpochObserver = (*SampledProfiler)(nil)

// NewSampled creates a sampled profiler resolving addresses through sym
// (for compressed images, the symbol table GuestSymTab already translates
// unit addresses). Connect it with cpu.EnableEpochSampling(p).
func NewSampled(sym *SymTab) *SampledProfiler {
	return &SampledProfiler{
		sym:    sym,
		flat:   make([]Counts, sym.NumFuncs()+1),
		funcOf: map[*machine.Predecode][]int32{},
	}
}

// resolve returns (building and memoizing on first sight of a table) the
// function id of every slot.
func (p *SampledProfiler) resolve(pd *machine.Predecode) []int32 {
	if f, ok := p.funcOf[pd]; ok {
		return f
	}
	f := make([]int32, len(pd.Slots))
	for i := range f {
		f[i] = int32(p.sym.FuncOf(pd.Base + uint32(i)<<pd.Shift))
	}
	p.funcOf[pd] = f
	return f
}

// ObserveEpoch implements machine.EpochObserver: folds one epoch's slot
// traffic into the flat profile and the heat map. Only the touched slots
// are visited, so the fold costs what the epoch executed.
func (p *SampledProfiler) ObserveEpoch(pd *machine.Predecode, tr []machine.SlotTraffic, touched []int32) {
	fns := p.resolve(pd)
	for _, i := range touched {
		t := &tr[i]
		s := &pd.Slots[i]
		c := &p.flat[fns[i]+1]
		c.Cycles += int64(t.Steps)
		c.FetchBytes += int64(t.Fetches) * int64(s.MemBytes)
		c.Expanded += int64(t.Steps - t.Fetches)
		if s.Rank >= 0 {
			c.Expansions += int64(t.Fetches)
			p.heat = countHeat(p.heat, int(s.Rank), int64(t.Fetches))
		}
	}
}

// Profile aggregates the drained traffic into the same report shape the
// exact profiler produces. Sampled profiles observe no call stacks, so
// each function's Cum equals its Flat and Total sums the flat counts
// (equal to the fast loop's step count for cycles).
func (p *SampledProfiler) Profile(name string) *Profile {
	prof := &Profile{Name: name}
	for i, c := range p.flat {
		if c == (Counts{}) {
			continue
		}
		prof.Funcs = append(prof.Funcs, FuncProfile{Name: p.sym.Name(i - 1), Flat: c, Cum: c})
		prof.Total.add(c)
	}
	prof.sortHottest()
	return prof
}

// Heat returns the reconstructed dictionary-entry heat map (index = rank):
// for the covered steps, exactly what the exact Profiler's Heat counts on
// the instrumented path.
func (p *SampledProfiler) Heat() []int64 { return p.heat }
