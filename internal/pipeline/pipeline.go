// Package pipeline is a simple in-order timing model over the machine
// simulator: one cycle per instruction, a flush penalty per taken branch,
// a decode penalty per dictionary-expanded instruction (the variable-
// length decoder of §2.1's "decode efficiency" discussion), and a miss
// penalty per instruction-cache miss. It quantifies the paper's central
// trade — "the ability to compress instruction code is important, even at
// the cost of execution speed" — and where that cost flips into a win.
package pipeline

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/machine"
)

// Config parameterizes the model.
type Config struct {
	// BranchPenalty is the flush cost of a taken branch.
	BranchPenalty int64
	// ExpandPenalty is the extra decode cost per dictionary-expanded
	// instruction (0 for the normal fetch path).
	ExpandPenalty int64
	// MissPenalty is the refill cost per I-cache miss.
	MissPenalty int64
	// ICache sizes the instruction cache fed by the fetch trace.
	ICache cache.Config
}

// DefaultConfig is a small embedded core: 2-cycle taken-branch penalty,
// 1-cycle variable-length decode penalty, 1KB direct-mapped cache.
func DefaultConfig(missPenalty int64) Config {
	return Config{
		BranchPenalty: 2,
		ExpandPenalty: 1,
		MissPenalty:   missPenalty,
		ICache:        cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1},
	}
}

// Report is the event counts of one simulated run: everything the model
// prices, so one simulation serves every penalty setting.
type Report struct {
	Steps         int64
	TakenBranches int64
	Expanded      int64
	Accesses      int64 // I-cache accesses
	Misses        int64
}

// Cycles prices the run under cfg's penalties.
func (r Report) Cycles(cfg Config) int64 {
	return r.Steps +
		cfg.BranchPenalty*r.TakenBranches +
		cfg.ExpandPenalty*r.Expanded +
		cfg.MissPenalty*r.Misses
}

// CPI is cycles per instruction under cfg.
func (r Report) CPI(cfg Config) float64 {
	if r.Steps == 0 {
		return 0
	}
	return float64(r.Cycles(cfg)) / float64(r.Steps)
}

// MissRate is I-cache misses per access.
func (r Report) MissRate() float64 {
	return cache.Stats{Accesses: r.Accesses, Misses: r.Misses}.MissRate()
}

// Measure runs the CPU to completion with an instruction cache of the
// given shape on its fetch trace and returns the run's event counts. The
// CPU must be freshly constructed. Measure owns its TraceFetch hook and
// leaves TraceSlots to the caller, so another model of the same run (say,
// core.DictInMemoryFetches) can ride along on the fused loop. The cache's
// counters go to cpu.Record, when one is attached.
func Measure(cpu *machine.CPU, icache cache.Config, maxSteps int64) (Report, error) {
	ic, err := cache.New(icache)
	if err != nil {
		return Report{}, err
	}
	cpu.TraceFetch = ic.Access
	if _, err := cpu.Run(maxSteps); err != nil {
		return Report{}, fmt.Errorf("pipeline: %w", err)
	}
	ic.Report(cpu.Record)
	return Report{
		Steps:         cpu.Stats.Steps,
		TakenBranches: cpu.Stats.TakenBranches,
		Expanded:      cpu.Stats.Expanded,
		Accesses:      ic.Stats.Accesses,
		Misses:        ic.Stats.Misses,
	}, nil
}
