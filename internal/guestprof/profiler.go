package guestprof

import (
	"slices"

	"repro/internal/cache"
	"repro/internal/machine"
)

// Counts is the attribution vector the profiler maintains per call-tree
// node and reports per function.
type Counts struct {
	Cycles      int64 `json:"cycles"`                 // instructions executed (machine steps)
	FetchBytes  int64 `json:"fetch_bytes"`            // program-memory bytes fetched
	Expansions  int64 `json:"expansions,omitempty"`   // codeword expansions begun
	Expanded    int64 `json:"expanded,omitempty"`     // instructions supplied by the dictionary
	CacheMisses int64 `json:"cache_misses,omitempty"` // I-cache misses (when a cache is observed)
}

func (c *Counts) add(d Counts) {
	c.Cycles += d.Cycles
	c.FetchBytes += d.FetchBytes
	c.Expansions += d.Expansions
	c.Expanded += d.Expanded
	c.CacheMisses += d.CacheMisses
}

// rootFn is the call-tree root's sentinel id; it can never equal a
// FuncOf result (-1 is the unknown function, >= 0 are known functions).
const rootFn = -2

// node is one call-tree position: a function reached through a distinct
// stack of callers. Counts accumulate on the node; reports aggregate them
// per function (flat) and per path (cumulative, folded stacks).
type node struct {
	fn     int
	parent *node
	kids   []*node // in creation order; a call site's callees are few
	c      Counts
}

func (n *node) child(fn int) *node {
	for _, k := range n.kids {
		if k.fn == fn {
			return k
		}
	}
	k := &node{fn: fn, parent: n}
	n.kids = append(n.kids, k)
	return k
}

// frame is one live stack entry: the call-tree node plus the return
// address the frame's call recorded (0 for frames not created by a call).
type frame struct {
	n   *node
	ret uint32
}

// Profiler attributes execution to guest functions. Create with New,
// observe a simulated I-cache with ObserveCache, connect with Attach, run
// the machine, then export with Profile, WriteFolded or Heat. A Profiler
// is single-run state: profile one CPU per Profiler.
//
// Attach feeds the profiler the CPU's fetch journal (TraceSlots), which
// leaves Run on the fused loop. Step is the same attribution fed one
// TraceStep delivery at a time; it forces the instrumented path and is
// kept as the differential oracle for the journal.
type Profiler struct {
	sym   *SymTab
	cache *cache.Cache
	root  *node
	stack []frame
	heat  []int64 // expansions begun, by rank, that no table's fetch counts hold

	attached   bool
	lastMisses int64
	misses     []int64 // I-cache misses of each fetch since the last batch, in fetch order

	tables map[*machine.Predecode]*table
	pend   pending // the last slot's call or return, until the next slot shows where it went
	key    uint16  // the memo key of the slots run may count into the top frame; 0 for none
}

// table is what the profiler keeps per slot of a predecode table, from
// the slot's first delivery on, so that later fetches of it read neither
// the slot nor the symbol table: its memo word, and how often it was
// fetched (the heat map's source). run reads both for nearly every fetch
// and, in a Run of the fused loop, mostly finds them cold, so each is one
// word. Step's one-slot table holds a different instruction at every
// delivery, so one-slot tables keep none.
//
// A memo word holds, from bit 48, the slot's key: its function id + 2
// and, from bit 14 of the key, the BranchCall or BranchReturn its last
// instruction can make. Below the key are the fetch's sums: EntryLen,
// MemBytes and 1 when it begins an expansion, in 16-bit lanes that run
// adds without carries over a whole journal. A slot whose id does not fit
// the key, or whose EntryLen or MemBytes exceeds 15, is not memoized: its
// word stays 0.
type table struct {
	pd      *machine.Predecode
	words   []uint64
	fetches []int64
}

const (
	memoFn   = 1<<14 - 1
	keyShift = 48
	laneBits = 16
	lane     = 1<<laneBits - 1
	laneMax  = 15 // largest EntryLen or MemBytes a memo word holds
)

// addFetches adds n fetches whose sums lanes add up to sums (bits from
// keyShift on are ignored). Each supplied its slot's EntryLen
// instructions; a table fetch reads program memory, so all but the first
// of them were expanded.
func (c *Counts) addFetches(sums uint64, n int) {
	cycles := int64(sums & lane)
	c.Cycles += cycles
	c.FetchBytes += int64(sums >> laneBits & lane)
	c.Expansions += int64(sums >> (2 * laneBits) & lane)
	c.Expanded += cycles - int64(n)
}

// pending is a delivered call or return whose effect waits for the next
// delivered slot: the branch was taken when the journal says so (taken)
// or when that slot is not at the fall-through address next, and then its
// address is the target. next is also a call's return address.
type pending struct {
	kind  machine.BranchKind // BranchNone when nothing is pending
	taken bool
	next  uint32
}

// New creates a profiler resolving addresses through sym.
func New(sym *SymTab) *Profiler {
	p := &Profiler{sym: sym, root: &node{fn: rootFn}, tables: map[*machine.Predecode]*table{}}
	p.stack = append(p.stack, frame{n: p.root})
	return p
}

// ObserveCache attributes the cache's misses to the executing function.
// The cache must be the one fed by the CPU's TraceFetch hook; call it
// before Attach. Step reads the misses off the cache, since Step's fetch
// accesses happen before TraceStep fires.
func (p *Profiler) ObserveCache(c *cache.Cache) {
	if p.attached {
		panic("guestprof: ObserveCache after Attach")
	}
	p.cache = c
	if c != nil {
		p.lastMisses = c.Stats.Misses
	}
}

// Attach connects the profiler to a CPU's TraceSlots hook. With a cache
// observed it also wraps TraceFetch, which must already feed that cache,
// to note each fetch's misses in fetch order: a batch's fetches all reach
// TraceFetch before its slots reach TraceSlots.
func (p *Profiler) Attach(cpu *machine.CPU) {
	p.attached = true
	cpu.TraceSlots = p.observe
	if fetch := cpu.TraceFetch; p.cache != nil {
		if fetch == nil {
			panic("guestprof: the observed cache is fed by no TraceFetch")
		}
		cpu.TraceFetch = func(addr uint32, nbytes int) {
			fetch(addr, nbytes)
			m := p.cache.Stats.Misses
			p.misses = append(p.misses, m-p.lastMisses)
			p.lastMisses = m
		}
	}
}

// Step consumes one executed instruction. Exactly one cycle is attributed
// per call, so summed per-function cycles always equal the machine's step
// count.
func (p *Profiler) Step(si machine.StepInfo) {
	n := p.enter(p.sym.FuncOf(si.CIA))
	n.c.Cycles++
	n.c.FetchBytes += int64(si.MemBytes)
	if si.EntryLen > 0 {
		n.c.Expansions++
		p.heat = countHeat(p.heat, si.EntryRank, 1)
	}
	if si.MemBytes == 0 {
		n.c.Expanded++
	}
	if p.cache != nil {
		if m := p.cache.Stats.Misses; m != p.lastMisses {
			n.c.CacheMisses += m - p.lastMisses
			p.lastMisses = m
		}
	}
	if si.Branch == machine.BranchCall {
		p.call(p.sym.FuncOf(si.Target), si.Next)
	} else if si.Branch == machine.BranchReturn {
		p.ret(si.Target)
	}
}

// observe attributes one batch of delivered slots (the
// machine.CPU.TraceSlots contract): runs of slots that stay in the
// executing function without calling or returning by run, every other
// slot, including the batch's cut one, by slot. A call or return is
// settled by the slot after it as soon as that slot is in hand, so the
// run resumes there. Every slot took at most one fetch, in slot order (a
// Step slot that continues an expansion took none), so slot k's misses
// are the k-th fetch's.
func (p *Profiler) observe(pd *machine.Predecode, slots []uint32, cut int) {
	t := p.tables[pd]
	if t == nil {
		t = &table{pd: pd}
		if n := len(pd.Slots); n > 1 {
			t.words, t.fetches = make([]uint64, n), make([]int64, n)
		}
		p.tables[pd] = t
	}
	last, whole := len(slots)-1, slots
	if cut > 0 {
		whole = slots[:last]
	}
	for k := 0; k <= last; k++ {
		if k < len(whole) && p.key != 0 && t.words != nil {
			if k += p.run(t, whole[k:]); k > last {
				break
			}
		}
		var misses int64
		if k < len(p.misses) {
			misses = p.misses[k]
		}
		c := 0
		if k == last {
			c = cut
		}
		p.slot(t, slots[k], c, misses)
		if p.pend.kind != machine.BranchNone && k < last {
			idx := slots[k+1] &^ machine.SlotTaken
			_, _, fn := p.memo(t, idx)
			p.settle(pd, idx, fn)
		}
		p.key = 0 // while a call or return is pending, or misses go fetch by fetch
		if fn := p.stack[len(p.stack)-1].n.fn + 2; p.pend.kind == machine.BranchNone && p.cache == nil && fn <= memoFn {
			p.key = uint16(fn)
		}
	}
	p.misses = p.misses[:0]
}

// run counts the longest prefix of slots whose memo key is key — fetches
// in the executing function that neither call nor return, with nothing
// pending — into the top frame, and returns its length. Only the table's
// memo words and fetch counts are touched.
func (p *Profiler) run(t *table, slots []uint32) int {
	key, words, fetches := uint64(p.key), t.words, t.fetches[:len(t.words)]
	slots = slots[:min(len(slots), machine.JournalLen)]
	var sum uint64
	k := 0
	for ; k < len(slots); k++ {
		i := slots[k] // a SlotTaken flag puts it out of range
		if int(i) >= len(words) {
			break
		}
		w := words[i]
		if w>>keyShift != key {
			break
		}
		sum += w
		fetches[i]++
	}
	p.stack[len(p.stack)-1].n.c.addFetches(sum, k)
	return k
}

// slot attributes one delivered slot i of t (SlotTaken included), whose
// fetch supplied EntryLen-cut instructions and missed the I-cache misses
// times, after settling the previous slot's pending call or return.
func (p *Profiler) slot(t *table, i uint32, cut int, misses int64) {
	pd, idx := t.pd, i&^machine.SlotTaken
	key, sums, fn := p.memo(t, idx)
	p.settle(pd, idx, fn)
	n := p.enter(fn)
	n.c.addFetches(sums, 1)
	n.c.Cycles -= int64(cut)
	n.c.Expanded -= int64(cut)
	if sums>>laneBits&lane == 0 {
		n.c.Expanded++ // Step delivered an expansion's continuation
	}
	n.c.CacheMisses += misses
	if t.fetches != nil {
		t.fetches[idx]++
	} else if r := pd.Slots[idx].Rank; r >= 0 {
		p.heat = countHeat(p.heat, int(r), 1)
	}
	p.pend = pending{kind: machine.BranchKind(key >> 14), taken: cut > 0 || i&machine.SlotTaken != 0, next: pd.Slots[idx].Next}
	if cut > 0 {
		p.pend.kind = callOrReturn(lastInst(pd, &pd.Slots[idx], cut))
	}
}

// settle applies the pending call or return, if any, now that the next
// delivered slot, idx of pd in function fn, shows whether it was taken
// and where to.
func (p *Profiler) settle(pd *machine.Predecode, idx uint32, fn int) {
	if addr := pd.Base + idx<<pd.Shift; p.pend.taken || addr != p.pend.next {
		if p.pend.kind == machine.BranchCall {
			p.call(fn, p.pend.next)
		} else if p.pend.kind == machine.BranchReturn {
			p.ret(addr)
		}
	}
	p.pend.kind = machine.BranchNone
}

// memo returns slot idx of t's key (without its function id when the
// slot is not memoized), its sums and its function, memoizing the slot on
// first sight in a table that keeps memo words.
func (p *Profiler) memo(t *table, idx uint32) (uint16, uint64, int) {
	if t.words != nil && t.words[idx] != 0 {
		w := t.words[idx]
		key := uint16(w >> keyShift)
		return key, w, int(key&memoFn) - 2
	}
	pd := t.pd
	s := &pd.Slots[idx]
	fn := p.sym.FuncOf(pd.Base + idx<<pd.Shift)
	key := uint16(callOrReturn(lastInst(pd, s, 0))) << 14
	sums := uint64(s.EntryLen) | uint64(s.MemBytes)<<laneBits
	if s.Rank >= 0 {
		sums |= 1 << (2 * laneBits)
	}
	if t.words != nil && fn+2 <= memoFn && s.EntryLen <= laneMax && s.MemBytes <= laneMax {
		key |= uint16(fn + 2)
		t.words[idx] = uint64(key)<<keyShift | sums
	}
	return key, sums, fn
}

// lastInst is the instruction that ended a fetch of s whose expansion
// left cut instructions unexecuted.
func lastInst(pd *machine.Predecode, s *machine.PredecodedSlot, cut int) *machine.Resolved {
	if k := int(s.EntryLen) - 1 - cut; k > 0 {
		return &pd.Entries[s.Rank].Insts[k]
	}
	return &s.Inst
}

// callOrReturn is r's transfer when it is one that moves the stack.
func callOrReturn(r *machine.Resolved) machine.BranchKind {
	if k := r.Transfer(); k == machine.BranchCall || k == machine.BranchReturn {
		return k
	}
	return machine.BranchNone
}

// enter makes fn the executing function and returns its node. A call or
// return has already moved the stack; control that crossed a function
// boundary without one (a tail jump, or fallthrough) replaces the top
// frame, keeping its return address, and the first attributed
// instruction opens the entry function's frame.
func (p *Profiler) enter(fn int) *node {
	top := len(p.stack) - 1
	if cur := p.stack[top].n; cur.fn != fn {
		if cur == p.root {
			p.stack = append(p.stack, frame{n: p.root.child(fn)})
			top++
		} else {
			p.stack[top].n = cur.parent.child(fn)
		}
	}
	return p.stack[top].n
}

// call opens the frame of a taken call to callee under the executing
// function, returning to ret.
func (p *Profiler) call(callee int, ret uint32) {
	top := p.stack[len(p.stack)-1].n
	p.stack = append(p.stack, frame{n: top.child(callee), ret: ret})
}

// ret pops, for a taken return to target, the frame whose call resumes
// there, plus anything above it (frames abandoned by unmatched calls). An
// unmatched return is treated as a jump: the next instruction's boundary
// check re-synchronizes the top frame.
func (p *Profiler) ret(target uint32) {
	for i := len(p.stack) - 1; i > 0; i-- {
		if p.stack[i].ret == target {
			p.stack = p.stack[:i]
			return
		}
	}
}

// Heat returns the dictionary-entry heat map (index = rank): how many
// codeword fetches began expanding each entry.
func (p *Profiler) Heat() []int64 {
	heat := slices.Clone(p.heat)
	for _, t := range p.tables {
		for i, n := range t.fetches {
			if r := t.pd.Slots[i].Rank; n > 0 && r >= 0 {
				heat = countHeat(heat, int(r), n)
			}
		}
	}
	return heat
}

// countHeat adds n expansions of the entry at rank to heat, growing the
// map to cover the rank.
func countHeat(heat []int64, rank int, n int64) []int64 {
	if rank >= len(heat) {
		heat = append(heat, make([]int64, rank+1-len(heat))...)
	}
	heat[rank] += n
	return heat
}

// Depth reports the current live stack depth (excluding the root frame),
// for tests and diagnostics.
func (p *Profiler) Depth() int { return len(p.stack) - 1 }
