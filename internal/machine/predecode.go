package machine

import (
	"math"
	"math/bits"

	"repro/internal/ppc"
)

// This file is the predecoded execution engine: the decode work the paper
// assigns to the fetch/decode hardware stage (codeword parsing, dictionary
// lookup, instruction decode and resolution) is done once, up front, into a
// flat table indexed by PC, and CPU.Run drives a fused fetch+execute loop
// over that table whenever no per-step hook needs the per-fetch FetchInfo
// stream. The loop holds the machine's one dispatch on instruction kind:
// Step fetches and resolves its instruction, then executes it through the
// same loop. The fused loop bails back to Step for anything unusual (fault
// slots, PCs outside the table, text modified behind the table's back), so
// every fetch fault is produced by exactly one implementation.

// PredecodedSlot is one PC-indexed cell of a Predecode table: the resolved
// instruction at that address plus the fetch accounting the slow path
// would have produced for it. The layout is exactly 32 bytes — two slots
// per cache line — which matters: the fused loop's slot load is the one
// memory access the simulated fetch stage makes per instruction.
type PredecodedSlot struct {
	Inst Resolved // resolved instruction (first instruction for a codeword)
	Word uint32   // its encoding, reported by a fault

	Next uint32 // PC of the sequential successor
	Rank int32  // dictionary entry rank; -1 for a raw instruction

	MemBytes uint8 // program-memory bytes this fetch accounts for
	EntryLen uint8 // instructions the slot expands to (1 when raw)
	Succ     uint8 // slots from this one to Next's

	// Fault marks an address the builder could not execute directly:
	// off-end or torn codeword decode, rank beyond the dictionary, an
	// instruction that decodes to OpInvalid, or an entry whose later
	// instructions include a relative branch (its target depends on the
	// codeword's address, which the shared entry cache does not know). The
	// fused loop resolves such addresses through Step, which reproduces the
	// exact outcome.
	Fault bool
}

// PredecodedEntry is one dictionary entry decoded and resolved once at
// table-build time, streamed by index during expansion instead of
// re-sliced and re-decoded per fetch. Insts[k] is resolved with linkOK
// true only for the last instruction and with no branch target: a slot
// whose entry has a relative branch after its first instruction is a
// Fault slot.
type PredecodedEntry struct {
	Insts []Resolved
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
	memo := GetMemo()
	defer memo.Release()
	for i := 0; i < n; i++ {
		addr := lo + uint32(4*i)
		s := &pd.Slots[i]
		w, err := mem.Load32(addr)
		if err != nil {
			s.Fault = true
			continue
		}
		r, ok := memo.Lookup(w, true)
		if !ok {
			inst := ppc.Decode(w)
			if inst.Op == ppc.OpInvalid {
				s.Fault = true
				continue
			}
			// The relative target is NormalFrontend.RelTarget's.
			r = memo.Resolve(w, inst, addr+uint32(inst.Imm>>2)*4, true)
		}
		*s = PredecodedSlot{Inst: r, Word: w, Next: addr + 4, Rank: -1, MemBytes: 4, EntryLen: 1, Succ: 1}
	}
	return pd
}

// word returns the encoding of an instruction in flight: the slot's own,
// or the k-th of its entry.
func (pd *Predecode) word(s *PredecodedSlot, k int) uint32 {
	if k > 0 {
		return pd.Entries[s.Rank].Words[k]
	}
	return s.Word
}

// runFast is the fused fetch+execute loop and the machine's one dispatch
// on instruction kind. It requires the per-step hook to be nil (checked by Run):
// with nobody observing per-instruction events, fetch reduces to a table
// index plus three counter adds, expansion streams resolved instructions
// straight out of the entry cache, and a taken branch to an address in
// the table skips the frontend entirely. Stats produced here are identical
// to the slow path's: each table fetch is one memory fetch of MemBytes,
// each expansion continuation is one Expanded step with no traffic, and
// the budget is enforced before every instruction — a codeword whose
// expansion would cross it is handed to Step, so the frontend's expansion
// queue, not this loop, carries the remainder into the next Run.
//
// Telemetry rides the loop for free. Without a journal consumer (the
// fetch and slot hooks), stepLimit is just maxSteps and the boundary
// comparison is the budget check the loop always made. With one, each
// table fetch appends its slot index to the journal jl — the loop's only
// per-fetch telemetry work — and stepLimit also stops at the journal's
// free room (one step journals at most one fetch), where drainFetches
// hands it out in order. A taken branch that ends an expansion early, or
// that targets its own fall-through, tells the slot hook at once
// (takenFetch), while its fetch is still the journal's last entry. Every exit goes
// through endFast, which delivers the journal's remainder and classifies
// the bail. The loop body itself never touches a sink — lint-fastpath
// keeps it that way.
//
// With fe nil the loop is Step's executor: pd is the CPU's one-slot table
// holding the instruction Step fetched, at Base. It executes that
// instruction and returns at the first boundary, with no fetch or Fast
// accounting and no SetRawPC — Step accounted for the fetch, and the
// frontend (a compressed one may hold the rest of an expansion) stays
// where Step's Fetch left it. Every taken branch goes through the
// frontend's SetPC.
//
// The (status, done, err) return tells Run whether the segment completed
// the program (done: exit, fault, or budget) or bailed with work left
// (fault slot, off-table PC, stale table) for the instrumented loop to
// finish.
func (c *CPU) runFast(fe PredecodedFrontend, pd *Predecode, maxSteps int64) (int32, bool, error) {
	g := &c.GPR
	slots := pd.Slots
	// The segment's cold state lives in the CPU, out of the register
	// allocator's way: the loop touches it only at boundaries, branches
	// and exits. Step's runs have their own, since a budget hand-off nests
	// them inside a fused segment.
	sg := &c.segs[1]
	if fe == nil {
		// A stepping segment needs only its base: every taken branch goes
		// through SetPC, and a store to text ends the step anyway.
		sg.stepping, sg.base = true, pd.Base
	} else {
		sg = &c.segs[0]
		*sg = segment{fe: fe, base: pd.Base, shift: pd.Shift, limit: uint32(len(slots)) << pd.Shift,
			gen: c.Mem.storeGen, maxSteps: maxSteps, entrySteps: c.Stats.Steps}
	}
	var (
		stepLimit int64
		idx       uint32          // slot to fetch next
		s         *PredecodedSlot // slot in flight, at idx - s.Succ
		r         *Resolved       // the instruction in flight
		rem       int             // instructions of s's entry left to execute
		target    uint32          // taken-branch target
		bk        BranchKind      // taken-branch kind
		ea, v     uint32
		b         uint8
		h         uint16
		reason    BailReason
		err       error
	)
	if sg.stepping {
		// Step's instruction enters as the continuation of an expansion
		// its own fetch already accounted for.
		s, rem = &c.stepSlot[0], 1
		stepLimit = math.MinInt64 // the first fetch boundary ends the step
	} else {
		sg.jl = c.beginJournal()
		stepLimit = nextLimit(c.Stats.Steps, maxSteps, sg.jl != nil)
		off := fe.PC() - sg.base
		if off>>sg.shift<<sg.shift != off {
			// A misaligned PC has no slot: the slow path reports it.
			c.endFast(pd, sg, BailOffTable, 0)
			return 0, false, nil
		}
		idx = off >> sg.shift
	}

	for {
		if rem > 0 {
			rem--
			if sg.stepping {
				r = &s.Inst
			} else {
				// The next instruction of the codeword's expansion.
				r = &pd.Entries[s.Rank].Insts[int(s.EntryLen)-rem-1]
				c.Stats.Steps++
				c.Stats.Expanded++
			}
		} else {
			if c.Stats.Steps >= stepLimit {
				if sg.stepping {
					return 0, false, nil
				}
				if c.Stats.Steps >= sg.maxSteps {
					c.endFast(pd, sg, BailBudget, 0)
					sg.fe.SetRawPC(sg.base + idx<<sg.shift)
					return 0, true, errBudget(sg.maxSteps)
				}
				// Journal boundary, or a store hit text: hand the fetches
				// out and keep running on a table still valid.
				if sg.jl != nil {
					c.drainFetches(pd, sg.jl, 0)
				}
				if c.Mem.storeGen != sg.gen {
					// Text modified since the table was built: the slow
					// path fetches what memory holds now.
					reason = BailSelfModifiedText
					goto bail
				}
				stepLimit = nextLimit(c.Stats.Steps, sg.maxSteps, sg.jl != nil)
			}
			if idx >= uint32(len(slots)) {
				// Sequential flow or a jump the frontend accepted left the
				// table.
				reason = BailOffTable
				goto bail
			}
			s = &slots[idx]
			if s.Fault {
				reason = BailFaultSlot
				goto bail
			}
			if rem = int(s.EntryLen) - 1; rem > 0 && c.Stats.Steps+int64(rem) >= sg.maxSteps {
				goto handoff
			}
			c.Stats.Steps++
			c.Stats.MemFetches++
			c.Stats.FetchedBytes += int64(s.MemBytes)
			if sg.jl != nil {
				*sg.jl = append(*sg.jl, idx)
			}
			r, idx = &s.Inst, idx+uint32(s.Succ)
		}

		switch r.Kind {
		case kIllegal:
			cia := sg.cia(idx, s)
			err = Faultf(FaultIllegalInstruction, cia, cia, "machine: illegal instruction %08x at %#x",
				pd.word(s, int(s.EntryLen)-rem-1), cia)
			goto fail

		case kLi:
			g[r.RT] = r.Imm
		case kAddi:
			g[r.RT] = g[r.RA] + r.Imm
		case kOri:
			g[r.RA] = g[r.RT] | r.Imm
		case kXori:
			g[r.RA] = g[r.RT] ^ r.Imm
		case kAndiRc:
			g[r.RA] = g[r.RT] & r.Imm
			c.setCR0(g[r.RA])

		case kCmpwi:
			c.setCRSigned(r.CRF, int32(g[r.RA]), int32(r.Imm))
		case kCmplwi:
			c.setCRUnsigned(r.CRF, g[r.RA], r.Imm)
		case kCmpw:
			c.setCRSigned(r.CRF, int32(g[r.RA]), int32(g[r.RB]))
		case kCmplw:
			c.setCRUnsigned(r.CRF, g[r.RA], g[r.RB])

		case kLwz:
			if v, err = c.Mem.Load32(g[r.RA] + r.Imm); err != nil {
				goto fail
			}
			g[r.RT] = v
		case kLwzAbs:
			if v, err = c.Mem.Load32(r.Imm); err != nil {
				goto fail
			}
			g[r.RT] = v
		case kLwzx:
			if v, err = c.Mem.Load32(g[r.RA] + g[r.RB]); err != nil {
				goto fail
			}
			g[r.RT] = v
		case kLbz:
			if b, err = c.Mem.Load8(g[r.RA] + r.Imm); err != nil {
				goto fail
			}
			g[r.RT] = uint32(b)
		case kLbzAbs:
			if b, err = c.Mem.Load8(r.Imm); err != nil {
				goto fail
			}
			g[r.RT] = uint32(b)
		case kLbzx:
			if b, err = c.Mem.Load8(g[r.RA] + g[r.RB]); err != nil {
				goto fail
			}
			g[r.RT] = uint32(b)
		case kLhz:
			if h, err = c.Mem.Load16(g[r.RA] + r.Imm); err != nil {
				goto fail
			}
			g[r.RT] = uint32(h)
		case kLhzAbs:
			if h, err = c.Mem.Load16(r.Imm); err != nil {
				goto fail
			}
			g[r.RT] = uint32(h)
		case kLhzx:
			if h, err = c.Mem.Load16(g[r.RA] + g[r.RB]); err != nil {
				goto fail
			}
			g[r.RT] = uint32(h)
		case kStw:
			if err = c.Mem.Store32(g[r.RA]+r.Imm, g[r.RT]); err != nil {
				goto fail
			}
			goto stored
		case kStwAbs:
			if err = c.Mem.Store32(r.Imm, g[r.RT]); err != nil {
				goto fail
			}
			goto stored
		case kStwx:
			if err = c.Mem.Store32(g[r.RA]+g[r.RB], g[r.RT]); err != nil {
				goto fail
			}
			goto stored
		case kStb:
			if err = c.Mem.Store8(g[r.RA]+r.Imm, uint8(g[r.RT])); err != nil {
				goto fail
			}
			goto stored
		case kStbAbs:
			if err = c.Mem.Store8(r.Imm, uint8(g[r.RT])); err != nil {
				goto fail
			}
			goto stored
		case kStbx:
			if err = c.Mem.Store8(g[r.RA]+g[r.RB], uint8(g[r.RT])); err != nil {
				goto fail
			}
			goto stored
		case kSth:
			if err = c.Mem.Store16(g[r.RA]+r.Imm, uint16(g[r.RT])); err != nil {
				goto fail
			}
			goto stored
		case kSthAbs:
			if err = c.Mem.Store16(r.Imm, uint16(g[r.RT])); err != nil {
				goto fail
			}
			goto stored
		case kSthx:
			if err = c.Mem.Store16(g[r.RA]+g[r.RB], uint16(g[r.RT])); err != nil {
				goto fail
			}
			goto stored
		case kStwu:
			ea = g[r.RA] + r.Imm
			if err = c.Mem.Store32(ea, g[r.RT]); err != nil {
				goto fail
			}
			g[r.RA] = ea
			goto stored
		case kLmw:
			if err = c.loadMultiple(r.RT, g[r.RA]+r.Imm); err != nil {
				goto fail
			}
		case kLmwAbs:
			if err = c.loadMultiple(r.RT, r.Imm); err != nil {
				goto fail
			}
		case kStmw:
			if err = c.storeMultiple(r.RT, g[r.RA]+r.Imm); err != nil {
				goto fail
			}
			goto stored
		case kStmwAbs:
			if err = c.storeMultiple(r.RT, r.Imm); err != nil {
				goto fail
			}
			goto stored

		case kAdd:
			g[r.RT] = g[r.RA] + g[r.RB]
			if r.Rc {
				c.setCR0(g[r.RT])
			}
		case kSubf:
			g[r.RT] = g[r.RB] - g[r.RA]
			if r.Rc {
				c.setCR0(g[r.RT])
			}
		case kNeg:
			g[r.RT] = -g[r.RA]
			if r.Rc {
				c.setCR0(g[r.RT])
			}
		case kMullw:
			g[r.RT] = uint32(int32(g[r.RA]) * int32(g[r.RB]))
			if r.Rc {
				c.setCR0(g[r.RT])
			}
		case kDivw:
			a, b := int32(g[r.RA]), int32(g[r.RB])
			var q int32
			if b != 0 && !(a == math.MinInt32 && b == -1) {
				q = a / b
			} // else architecturally undefined; pinned to 0 for determinism
			g[r.RT] = uint32(q)
			if r.Rc {
				c.setCR0(g[r.RT])
			}

		case kMr:
			g[r.RA] = g[r.RT]
		case kOr:
			g[r.RA] = g[r.RT] | g[r.RB]
			if r.Rc {
				c.setCR0(g[r.RA])
			}
		case kAnd:
			g[r.RA] = g[r.RT] & g[r.RB]
			if r.Rc {
				c.setCR0(g[r.RA])
			}
		case kXor:
			g[r.RA] = g[r.RT] ^ g[r.RB]
			if r.Rc {
				c.setCR0(g[r.RA])
			}
		case kNor:
			g[r.RA] = ^(g[r.RT] | g[r.RB])
			if r.Rc {
				c.setCR0(g[r.RA])
			}
		case kSlw:
			if sh := g[r.RB] & 0x3F; sh > 31 {
				g[r.RA] = 0
			} else {
				g[r.RA] = g[r.RT] << sh
			}
			if r.Rc {
				c.setCR0(g[r.RA])
			}
		case kSrw:
			if sh := g[r.RB] & 0x3F; sh > 31 {
				g[r.RA] = 0
			} else {
				g[r.RA] = g[r.RT] >> sh
			}
			if r.Rc {
				c.setCR0(g[r.RA])
			}
		case kSraw:
			g[r.RA] = uint32(int32(g[r.RT]) >> min(g[r.RB]&0x3F, 31))
			if r.Rc {
				c.setCR0(g[r.RA])
			}
		case kSrawi:
			g[r.RA] = uint32(int32(g[r.RT]) >> r.SH)
			if r.Rc {
				c.setCR0(g[r.RA])
			}
		case kExtsb:
			g[r.RA] = uint32(int32(int8(g[r.RT])))
			if r.Rc {
				c.setCR0(g[r.RA])
			}
		case kExtsh:
			g[r.RA] = uint32(int32(int16(g[r.RT])))
			if r.Rc {
				c.setCR0(g[r.RA])
			}
		case kRlwinm:
			g[r.RA] = bits.RotateLeft32(g[r.RT], int(r.SH)) & r.Imm
			if r.Rc {
				c.setCR0(g[r.RA])
			}

		case kMflr:
			g[r.RT] = c.LR
		case kMfctr:
			g[r.RT] = c.CTR
		case kMtlr:
			c.LR = g[r.RT]
		case kMtctr:
			c.CTR = g[r.RT]
		case kMfsprBad:
			err = Faultf(FaultUnsupportedSPR, 0, r.Imm, "machine: mfspr %d unsupported", r.Imm)
			goto fail
		case kMtsprBad:
			err = Faultf(FaultUnsupportedSPR, 0, r.Imm, "machine: mtspr %d unsupported", r.Imm)
			goto fail

		case kB:
			if r.LK {
				c.LR = s.Next
			}
			target, bk = r.Imm, linkKind(r.LK)
			goto branch
		case kBc:
			taken := c.branchCond(r.BO, r.BI)
			if r.LK {
				c.LR = s.Next
			}
			if taken {
				target, bk = r.Imm, linkKind(r.LK)
				goto branch
			}
		case kBclr:
			taken := c.branchCond(r.BO, r.BI)
			target = c.LR
			if r.LK {
				c.LR = s.Next
			}
			if taken {
				bk = BranchReturn
				if r.LK {
					bk = BranchCall
				}
				goto branch
			}
		case kBcctr:
			taken := c.branchCond(r.BO, r.BI)
			if r.LK {
				c.LR = s.Next
			}
			if taken {
				target, bk = c.CTR, linkKind(r.LK)
				goto branch
			}
		case kBAbs:
			cia := sg.cia(idx, s)
			err = Faultf(FaultAbsoluteBranch, cia, cia, "machine: absolute branch at %#x unsupported", cia)
			goto fail
		case kBadLnk:
			cia := sg.cia(idx, s)
			err = Faultf(FaultUnaddressableLink, cia, cia,
				"machine: link branch with unaddressable successor at %#x", cia)
			goto fail

		case kSc:
			c.Stats.Syscalls++
			if err = c.syscall(); err != nil {
				goto fail
			}
			if c.exited {
				goto exit
			}
		}
		continue

	stored:
		if c.Mem.storeGen != sg.gen {
			// The store hit text: the next fetch boundary bails.
			stepLimit = math.MinInt64
		}
		continue

	branch:
		// A taken branch ends any expansion in flight. A target inside the
		// table is valid by construction; any other goes through the
		// frontend, which redirects fetch or reports the fault.
		c.Stats.TakenBranches++
		c.branch = takenBranch{Kind: bk, Target: target}
		if sg.jl != nil && (rem > 0 || target == s.Next) {
			c.takenFetch(pd, sg.jl, rem)
		}
		if t := target - sg.base; t >= sg.limit || t>>sg.shift<<sg.shift != t {
			if err = c.fe.SetPC(target); err != nil {
				goto fail
			}
		}
		idx, rem = (target-sg.base)>>sg.shift, 0
		continue

	handoff:
		// The codeword's expansion would cross the budget. Step runs it
		// from the codeword, so the frontend's queue, not this loop, holds
		// what the budget leaves of it for the next Run. Its steps stay in
		// this segment; Step delivers each of them to the journal's hooks.
		if sg.jl != nil {
			c.drainFetches(pd, sg.jl, 0)
		}
		sg.fe.SetRawPC(sg.base + idx<<sg.shift)
		c.branch = takenBranch{}
		for c.Stats.Steps < sg.maxSteps && err == nil && !c.exited && c.branch.Kind == BranchNone {
			err = c.Step()
		}
		if err != nil {
			c.endFast(pd, sg, BailExecFault, 0)
			return 0, true, err
		}
		if c.exited {
			c.endFast(pd, sg, BailExit, 0)
			return c.status, true, nil
		}
		if c.branch.Kind == BranchNone {
			c.endFast(pd, sg, BailBudget, 0)
			return 0, true, errBudget(sg.maxSteps)
		}
		// A branch left the expansion within the budget: the loop takes
		// over again, and since Step may have stored to text, its next
		// fetch checks at the boundary.
		idx, rem = (sg.fe.PC()-sg.base)>>sg.shift, 0
		stepLimit = math.MinInt64
	}

bail:
	c.endFast(pd, sg, reason, 0)
	sg.fe.SetRawPC(sg.base + idx<<sg.shift)
	return 0, false, nil

exit:
	if !sg.stepping {
		c.endFast(pd, sg, BailExit, rem)
		sg.fe.SetRawPC(sg.base + idx<<sg.shift)
	}
	return c.status, true, nil

fail:
	err = at(err, sg.cia(idx, s), pd.word(s, int(s.EntryLen)-rem-1))
	if !sg.stepping {
		c.endFast(pd, sg, BailExecFault, rem)
		sg.fe.SetRawPC(sg.base + idx<<sg.shift)
	}
	return 0, true, err
}

// segment is one runFast call's cold state. A stepping segment keeps
// limit and shift 0.
type segment struct {
	fe       PredecodedFrontend
	stepping bool
	jl       *[]uint32 // the fetch journal, nil when none is kept

	maxSteps, entrySteps int64

	base, limit uint32
	shift       uint
	gen         uint64
}

// cia is the address of s, the slot in flight, given idx, the slot to
// fetch next.
func (sg *segment) cia(idx uint32, s *PredecodedSlot) uint32 {
	return sg.base + (idx-uint32(s.Succ))<<sg.shift
}

// nextLimit is the step count at which runFast next stops to check its
// boundaries: the budget and, while a journal is kept, the point where it
// could be full. The journal is empty whenever this is computed and one
// step journals at most one fetch, so JournalLen steps cannot overflow it.
func nextLimit(steps, maxSteps int64, journaling bool) int64 {
	if journaling {
		return min(maxSteps, steps+JournalLen)
	}
	return maxSteps
}
