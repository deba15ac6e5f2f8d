package guestprof

import "repro/internal/machine"

// SampledProfiler reconstructs a flat per-function guest profile from the
// fast path's fetch journal (machine.CPU.TraceSlots), without ever forcing
// the machine off the fused loop.
//
// Attribution is exact for every step the fast loop supplied: each
// instruction — including dictionary-expansion continuations — is
// attributed to the fetch address of its slot, which is precisely the CIA
// the exact Step-path profiler sees for the same instructions (all
// continuations of a codeword share its address). So on a run the fast
// loop covers fully, the sampled flat profile equals the exact profiler's
// flat profile, counter for counter; steps executed on the instrumented
// path are the only loss, and FastStats.Coverage reports their share.
// What the journal cannot show is the call stack, so profiles are
// flat-only (each function's Cum equals its Flat), nor the per-function
// fetch stream, so CacheMisses stays zero — a cache on TraceFetch still
// runs fused, but its misses are charged to no function.
type SampledProfiler struct {
	sym    *SymTab
	tables []*slotCounts // one per predecode table seen, in first-seen order
}

// slotCounts is one predecode table's journal, counted: fetches per slot,
// and per slot the instructions of its expansions that a taken branch, an
// exit or a fault cut short.
type slotCounts struct {
	pd      *machine.Predecode
	fetches []int64
	cut     []int64
}

// NewSampled creates a sampled profiler resolving addresses through sym
// (for compressed images, the symbol table GuestSymTab already translates
// unit addresses). Connect it with cpu.TraceSlots = p.ObserveSlots.
func NewSampled(sym *SymTab) *SampledProfiler {
	return &SampledProfiler{sym: sym}
}

// ObserveSlots counts one batch of journaled table fetches (the
// machine.CPU.TraceSlots contract). Counting is all it does: attribution
// to functions waits for Profile or Heat.
func (p *SampledProfiler) ObserveSlots(pd *machine.Predecode, slots []uint32, cut int) {
	t := p.counts(pd)
	for _, i := range slots {
		t.fetches[i]++
	}
	if cut > 0 {
		t.cut[slots[len(slots)-1]] += int64(cut)
	}
}

// counts returns pd's slot counters, allocating them on first sight. A
// machine runs from one table unless stores hit its text, so the search
// is a single comparison.
func (p *SampledProfiler) counts(pd *machine.Predecode) *slotCounts {
	for _, t := range p.tables {
		if t.pd == pd {
			return t
		}
	}
	t := &slotCounts{pd: pd, fetches: make([]int64, len(pd.Slots)), cut: make([]int64, len(pd.Slots))}
	p.tables = append(p.tables, t)
	return t
}

// fold attributes the counted fetches to functions (index fn+1; 0 is the
// unknown function) and to dictionary entries by rank.
func (p *SampledProfiler) fold() (flat []Counts, heat []int64) {
	flat = make([]Counts, p.sym.NumFuncs()+1)
	for _, t := range p.tables {
		for i, n := range t.fetches {
			if n == 0 {
				continue
			}
			s := &t.pd.Slots[i]
			c := &flat[p.sym.FuncOf(t.pd.Base+uint32(i)<<t.pd.Shift)+1]
			steps := n*int64(s.EntryLen) - t.cut[i]
			c.Cycles += steps
			c.FetchBytes += n * int64(s.MemBytes)
			c.Expanded += steps - n
			if s.Rank >= 0 {
				c.Expansions += n
				heat = countHeat(heat, int(s.Rank), n)
			}
		}
	}
	return flat, heat
}

// Profile aggregates the counted fetches into the same report shape the
// exact profiler produces. Sampled profiles observe no call stacks, so
// each function's Cum equals its Flat and Total sums the flat counts
// (equal to the fast loop's step count for cycles).
func (p *SampledProfiler) Profile(name string) *Profile {
	prof := &Profile{Name: name}
	flat, _ := p.fold()
	for i, c := range flat {
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
func (p *SampledProfiler) Heat() []int64 {
	_, heat := p.fold()
	return heat
}
