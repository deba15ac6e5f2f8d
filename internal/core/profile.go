package core

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/ppc"
)

// EntryHeat is one dictionary entry's execution profile: how often the
// machine began expanding it, alongside the static facts from compression
// (length, occurrences replaced, disassembly).
type EntryHeat struct {
	Rank  int      `json:"rank"`
	Count int64    `json:"count"` // expansions begun during execution
	Len   int      `json:"len"`   // instructions in the entry
	Uses  int      `json:"uses"`  // static occurrences replaced at compress time
	Insns []string `json:"insns"` // disassembled entry instructions
}

// RunProfile is the per-run execution profile a run bundle stores as
// profile.json: the data no stats counter can carry. That is the
// dictionary-entry heat map (hottest first; each entry's Len and Count
// give the expansion-length distribution) and, when a cache was simulated
// with a sampler, its miss curve. The run's counters (steps, fetches,
// fast-path coverage and bails, cache totals) live in the bundle's stats
// section.
type RunProfile struct {
	HotEntries []EntryHeat         `json:"hot_entries,omitempty"`
	MissCurve  []cache.SamplePoint `json:"miss_curve,omitempty"`
}

// CollectRunProfile assembles a RunProfile after a run completed. heat is
// the per-rank expansion count of img's dictionary entries, as the guest
// profiler's Heat method returns it. img may be nil (no dictionary: no
// heat map), as may curve (no cache sampler) — the profile simply omits
// those sections.
func CollectRunProfile(img *Image, heat []int64, curve []cache.SamplePoint) RunProfile {
	p := RunProfile{MissCurve: curve}
	if img != nil {
		for rank, e := range img.Entries {
			var n int64
			if rank < len(heat) {
				n = heat[rank]
			}
			if n == 0 {
				continue
			}
			insns := make([]string, len(e.Words))
			for i, w := range e.Words {
				insns[i] = ppc.Disassemble(w)
			}
			p.HotEntries = append(p.HotEntries, EntryHeat{
				Rank:  rank,
				Count: n,
				Len:   len(e.Words),
				Uses:  e.Uses,
				Insns: insns,
			})
		}
		sort.SliceStable(p.HotEntries, func(i, j int) bool {
			return p.HotEntries[i].Count > p.HotEntries[j].Count
		})
	}
	return p
}
