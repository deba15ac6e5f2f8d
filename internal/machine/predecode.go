package machine

import (
	"fmt"
	"math"

	"repro/internal/ppc"
)

// This file is the predecoded execution engine: the decode work the paper
// assigns to the fetch/decode hardware stage (codeword parsing, dictionary
// lookup, instruction decode) is done once, up front, into a flat table
// indexed by PC, and CPU.Run drives a fused fetch+execute loop over that
// table whenever no observability hook needs the per-fetch FetchInfo
// stream. The instrumented Step path remains the semantic reference; the
// fused loop bails back to it for anything unusual (fault slots, PCs
// outside the table, text modified behind the table's back) so every error
// message and edge case is produced by exactly one implementation.

// PredecodedSlot is one PC-indexed cell of a Predecode table: the decoded
// instruction at that address plus the fetch accounting the slow path
// would have produced for it. The layout is exactly 32 bytes — two slots
// per cache line — which matters: the fused loop's slot load is the one
// memory access the simulated fetch stage makes per instruction.
type PredecodedSlot struct {
	Inst ppc.Inst // decoded instruction (first instruction for a codeword)

	Next uint32 // PC of the sequential successor
	Rank int32  // dictionary entry rank; -1 for a raw instruction

	MemBytes uint8 // program-memory bytes this fetch accounts for
	EntryLen uint8 // instructions the slot expands to (1 when raw)

	// Fault marks an address the builder could not execute directly:
	// off-end or torn codeword decode, rank beyond the dictionary, or an
	// instruction that decodes to OpInvalid (its error text needs the raw
	// word the table no longer stores). The fused loop resolves such
	// addresses through the slow path, which reproduces the exact error.
	Fault bool
}

// PredecodedEntry is one dictionary entry decoded once at table-build
// time, streamed by index during expansion instead of re-sliced and
// re-decoded per fetch.
type PredecodedEntry struct {
	Insts []ppc.Inst
	Words []uint32
}

// Predecode is a flat decoded-instruction table over a frontend's PC
// space: slot i describes the instruction at Base + i<<Shift (Shift 2 for
// 4-byte native instructions, 0 for unit-addressed codeword streams).
type Predecode struct {
	Base  uint32
	Shift uint
	Slots []PredecodedSlot

	// UnitBits is the width of one PC-space address unit in bits: 8 for
	// byte-addressed text, the codeword unit for a compressed stream. It
	// scales a PC offset to the program-memory byte address the slot's
	// fetch reads (see UnitByteAddr).
	UnitBits uint

	// Entries is the expansion cache, indexed by dictionary rank.
	Entries []PredecodedEntry

	// gen is the Memory store generation the table was built at; the
	// normal frontend rebuilds when stores have hit text since.
	gen uint64
}

// UnitByteAddr maps the PC-space address base+off, counted in units of
// unitBits bits, to the byte address of the program memory holding it.
// The product is formed in 64 bits so large streams cannot wrap it.
func UnitByteAddr(base, off uint32, unitBits uint) uint32 {
	return base + uint32(uint64(off)*uint64(unitBits)/8)
}

// PredecodedFrontend is implemented by frontends whose text can be
// predecoded into a Predecode table, enabling the fused fast loop.
type PredecodedFrontend interface {
	Frontend

	// Predecode returns the table for the frontend's current text, or nil
	// when the frontend's configuration cannot use one (forcing the
	// instrumented path). The frontend owns caching and staleness.
	Predecode() *Predecode

	// SetRawPC repositions fetch without validation, resynchronizing the
	// frontend when the fused loop hands control back to the slow path;
	// the next Fetch then reproduces whatever fault the address implies.
	SetRawPC(pc uint32)
}

// PredecodeText builds the table for raw 32-bit text mapped at [lo, hi).
func PredecodeText(mem *Memory, lo, hi uint32) *Predecode {
	n := int(hi-lo) / 4
	pd := &Predecode{Base: lo, Shift: 2, UnitBits: 8, Slots: make([]PredecodedSlot, n)}
	for i := 0; i < n; i++ {
		addr := lo + uint32(4*i)
		w, err := mem.Load32(addr)
		s := &pd.Slots[i]
		inst := ppc.Decode(w)
		if err != nil || inst.Op == ppc.OpInvalid {
			s.Fault = true
			continue
		}
		*s = PredecodedSlot{
			Inst: inst, Next: addr + 4,
			Rank: -1, MemBytes: 4, EntryLen: 1,
		}
	}
	return pd
}

// runFast is the fused fetch+execute loop. It requires the per-step hooks
// to be nil (checked by Run): with nobody observing per-instruction
// events, fetch reduces to a table index plus three counter adds, and
// expansion streams decoded instructions straight out of the entry cache.
// Stats produced here are identical to the slow path's: each table fetch
// is one memory fetch of MemBytes, each expansion continuation is one
// Expanded step with no traffic, and the budget is enforced before every
// instruction, including mid-expansion.
//
// Telemetry rides the loop for free. Without epoch sampling or a fetch
// hook, stepLimit is just maxSteps and the boundary comparison is the
// budget check the loop always made. With sampling on, the loop runs in
// epochs: stepLimit drops to the next epoch boundary (epochEnd), per-slot
// traffic accumulates in tr (two array increments per fetch, one per
// continuation), and drainEpoch hands the counters out between epochs.
// With a fetch hook attached, each table fetch appends its slot index to
// the journal jl; stepLimit also stops at the journal's free room (one
// step journals at most one fetch), where drainFetches replays it in
// order. Every exit goes through endFast, which delivers the journal's
// remainder and classifies the bail; the partial epoch in flight carries
// over to the next segment or Run and FlushEpoch forces it out. The loop
// body itself never touches a sink — lint-fastpath keeps it that way.
//
// The (status, done, err) return tells Run whether the segment completed
// the program (done: exit, fault, or budget) or bailed with work left
// (fault slot, off-table PC, stale table) for the instrumented loop to
// finish.
func (c *CPU) runFast(fe PredecodedFrontend, pd *Predecode, maxSteps int64) (int32, bool, error) {
	pc := fe.PC()
	base, shift := pd.Base, pd.Shift
	limit := uint32(len(pd.Slots)) << shift
	gen := c.Mem.storeGen

	entrySteps := c.Stats.Steps
	epochStart := entrySteps
	epochEnd := int64(math.MaxInt64)
	var tr []SlotTraffic
	if c.samplingOn() {
		tr = c.beginFast(pd)
		// The epoch in flight may already hold steps from earlier segments
		// or Runs; this segment runs out its remainder.
		epochEnd = epochStart + c.epochLen() - c.sinceDrain
	}
	jl := c.beginJournal()
	stepLimit := nextLimit(c.Stats.Steps, maxSteps, epochEnd, jl != nil)
	for {
		if c.Stats.Steps >= stepLimit {
			if c.Stats.Steps >= maxSteps {
				c.endFast(pd, jl, BailBudget, entrySteps, epochStart)
				fe.SetRawPC(pc)
				return 0, true, fmt.Errorf("machine: step budget of %d exhausted", maxSteps)
			}
			// Journal or epoch boundary: hand the telemetry out and keep
			// running.
			if jl != nil {
				c.drainFetches(pd, jl)
			}
			if c.Stats.Steps >= epochEnd {
				c.drainEpoch(pd, tr, c.sinceDrain+c.Stats.Steps-epochStart, true)
				c.sinceDrain = 0
				epochStart = c.Stats.Steps
				epochEnd = epochStart + c.epochLen()
			}
			stepLimit = nextLimit(c.Stats.Steps, maxSteps, epochEnd, jl != nil)
		}
		off := pc - base
		idx := off >> shift
		if off >= limit || idx<<shift != off || c.Mem.storeGen != gen {
			// Off-table or misaligned PC (e.g. sequential flow off the
			// end), or text modified since the table was built: let the
			// slow path produce the architectural outcome.
			reason := BailOffTable
			if c.Mem.storeGen != gen {
				reason = BailSelfModifiedText
			}
			c.endFast(pd, jl, reason, entrySteps, epochStart)
			fe.SetRawPC(pc)
			return 0, false, nil
		}
		s := &pd.Slots[idx]
		if s.Fault {
			c.endFast(pd, jl, BailFaultSlot, entrySteps, epochStart)
			fe.SetRawPC(pc)
			return 0, false, nil
		}
		c.Stats.Steps++
		c.Stats.MemFetches++
		c.Stats.FetchedBytes += int64(s.MemBytes)
		if jl != nil {
			*jl = append(*jl, idx)
		}
		if tr != nil {
			t := &tr[idx]
			if t.Steps == 0 {
				c.note(idx)
			}
			t.Fetches++
			t.Steps++
		}
		c.branch = takenBranch{}
		n := int(s.EntryLen)
		// The word argument feeds only OpInvalid's error text, and
		// OpInvalid slots were marked Fault at build time.
		if err := c.exec(&s.Inst, 0, pc, s.Next, n == 1); err != nil {
			c.endFast(pd, jl, BailExecFault, entrySteps, epochStart)
			return 0, true, err
		}
		if n > 1 && !c.exited && c.branch.Kind == BranchNone {
			e := &pd.Entries[s.Rank]
			for k := 1; k < n; k++ {
				if c.Stats.Steps >= maxSteps {
					c.endFast(pd, jl, BailBudget, entrySteps, epochStart)
					fe.SetRawPC(s.Next)
					return 0, true, fmt.Errorf("machine: step budget of %d exhausted", maxSteps)
				}
				c.Stats.Steps++
				c.Stats.Expanded++
				if tr != nil {
					tr[idx].Steps++
				}
				c.branch = takenBranch{}
				if err := c.exec(&e.Insts[k], e.Words[k], pc, s.Next, k == n-1); err != nil {
					c.endFast(pd, jl, BailExecFault, entrySteps, epochStart)
					return 0, true, err
				}
				if c.exited || c.branch.Kind != BranchNone {
					break
				}
			}
		}
		if c.branch.Kind != BranchNone {
			// branchTo already validated and redirected the frontend.
			pc = c.branch.Target
		} else {
			pc = s.Next
		}
		if c.exited {
			c.endFast(pd, jl, BailExit, entrySteps, epochStart)
			fe.SetRawPC(pc)
			return c.status, true, nil
		}
	}
}

// nextLimit is the step count at which runFast next stops to check its
// boundaries: the budget, the end of the epoch in flight, and, while a
// journal is kept, the point where it could be full. The journal is empty
// whenever this is computed and one step journals at most one fetch, so
// JournalLen steps cannot overflow it.
func nextLimit(steps, maxSteps, epochEnd int64, journaling bool) int64 {
	limit := min(maxSteps, epochEnd)
	if journaling {
		limit = min(limit, steps+JournalLen)
	}
	return limit
}
