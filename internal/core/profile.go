package core

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/ppc"
	"repro/internal/stats"
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

// CacheProfile is the I-cache's end-of-run totals plus the sampled
// hit/miss time series (empty when no sampler was attached).
type CacheProfile struct {
	Accesses int64               `json:"accesses"`
	Hits     int64               `json:"hits"`
	Misses   int64               `json:"misses"`
	MissRate float64             `json:"miss_rate"`
	Curve    []cache.SamplePoint `json:"curve,omitempty"`
}

// FastPathProfile is the fused-loop telemetry section of a RunProfile:
// how much of the run the fast path supplied and why it exited (or was
// refused), from the machine's always-on FastStats.
type FastPathProfile struct {
	Steps     int64            `json:"steps"`      // instructions the fused loop executed
	SlowSteps int64            `json:"slow_steps"` // instructions from the instrumented path
	Coverage  float64          `json:"coverage"`   // Steps over total steps
	Epochs    int64            `json:"epochs,omitempty"`
	EpochHist *stats.Histogram `json:"epoch_hist,omitempty"` // epoch lengths (sampled runs)
	Bails     map[string]int64 `json:"bails,omitempty"`      // exits/refusals by reason
}

// RunProfile is the per-run execution profile a run bundle stores as
// profile.json: the machine's counters, fast-path coverage and bail
// accounting, the dictionary-entry heat map (hottest first; each entry's
// Len and Count give the expansion-length distribution) and, when a cache
// was simulated, its miss curve. All fields are JSON-serializable.
type RunProfile struct {
	Name         string          `json:"name"`
	Steps        int64           `json:"steps"`
	Expanded     int64           `json:"expanded"`
	MemFetches   int64           `json:"mem_fetches"`
	FetchedBytes int64           `json:"fetched_bytes"`
	Fastpath     FastPathProfile `json:"fastpath"`
	HotEntries   []EntryHeat     `json:"hot_entries,omitempty"`
	Cache        *CacheProfile   `json:"cache,omitempty"`
}

// CollectRunProfile assembles a RunProfile after cpu.Run completed. heat
// is the per-rank expansion count of img's dictionary entries, as a guest
// profiler's Heat method returns it (exact or sampled). img may be nil
// (uncompressed run: no heat map), as may ic and curve (no cache section)
// — the profile simply omits those sections. snap should be the snapshot
// of the run's recorder; its machine.fastpath.epoch_len histogram becomes
// Fastpath.EpochHist.
func CollectRunProfile(img *Image, heat []int64, cpu *machine.CPU, snap stats.Snapshot, ic *cache.Cache, curve []cache.SamplePoint) RunProfile {
	p := RunProfile{
		Steps:        cpu.Stats.Steps,
		Expanded:     cpu.Stats.Expanded,
		MemFetches:   cpu.Stats.MemFetches,
		FetchedBytes: cpu.Stats.FetchedBytes,
		Fastpath: FastPathProfile{
			Steps:     cpu.Fast.Steps,
			SlowSteps: cpu.Stats.Steps - cpu.Fast.Steps,
			Coverage:  cpu.Fast.Coverage(cpu.Stats.Steps),
			Epochs:    cpu.Fast.Epochs,
			Bails:     cpu.Fast.BailMap(),
		},
	}
	if h, ok := snap.Hists["machine.fastpath.epoch_len"]; ok {
		hc := h
		p.Fastpath.EpochHist = &hc
	}
	if img != nil {
		p.Name = img.Name
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
	if ic != nil {
		p.Cache = &CacheProfile{
			Accesses: ic.Stats.Accesses,
			Hits:     ic.Stats.Hits(),
			Misses:   ic.Stats.Misses,
			MissRate: ic.Stats.MissRate(),
			Curve:    curve,
		}
	}
	return p
}
