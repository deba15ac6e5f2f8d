package guestprof

import (
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
	kids   map[int]*node
	c      Counts
}

func (n *node) child(fn int) *node {
	if k, ok := n.kids[fn]; ok {
		return k
	}
	k := &node{fn: fn, parent: n}
	if n.kids == nil {
		n.kids = map[int]*node{}
	}
	n.kids[fn] = k
	return k
}

// frame is one live stack entry: the call-tree node plus the return
// address the frame's call recorded (0 for frames not created by a call).
type frame struct {
	n   *node
	ret uint32
}

// Profiler attributes execution to guest functions. Create with New,
// connect with Attach (and ObserveCache when an I-cache is simulated),
// run the machine, then export with Profile, WriteFolded or Heat.
// A Profiler is single-run state: profile one CPU per Profiler.
type Profiler struct {
	sym   *SymTab
	cache *cache.Cache
	root  *node
	stack []frame
	heat  []int64 // dictionary-entry expansions begun, by rank

	lastMisses int64
}

// New creates a profiler resolving addresses through sym.
func New(sym *SymTab) *Profiler {
	p := &Profiler{sym: sym, root: &node{fn: rootFn}}
	p.stack = append(p.stack, frame{n: p.root})
	return p
}

// ObserveCache attributes the cache's miss deltas to the executing
// function. The cache must be the one fed by the CPU's TraceFetch hook;
// fetch accesses happen before TraceStep fires, so each instruction's
// misses land on its own attribution.
func (p *Profiler) ObserveCache(c *cache.Cache) {
	p.cache = c
	if c != nil {
		p.lastMisses = c.Stats.Misses
	}
}

// Attach connects the profiler to a CPU's TraceStep hook, chaining any
// hook already installed.
func (p *Profiler) Attach(cpu *machine.CPU) {
	if prev := cpu.TraceStep; prev != nil {
		cpu.TraceStep = func(si machine.StepInfo) {
			prev(si)
			p.Step(si)
		}
		return
	}
	cpu.TraceStep = p.Step
}

// Step consumes one executed instruction. Exactly one cycle is attributed
// per call, so summed per-function cycles always equal the machine's step
// count.
func (p *Profiler) Step(si machine.StepInfo) {
	fn := p.sym.FuncOf(si.CIA)
	top := len(p.stack) - 1
	if cur := p.stack[top].n; cur.fn != fn {
		if cur == p.root {
			// First attributed instruction: open the entry function's frame.
			p.stack = append(p.stack, frame{n: p.root.child(fn)})
			top++
		} else {
			// Control moved across a function boundary without a call or
			// return (a tail jump, or fallthrough): replace the top frame,
			// keeping its return address.
			p.stack[top].n = cur.parent.child(fn)
		}
	}
	n := p.stack[top].n
	n.c.Cycles++
	n.c.FetchBytes += int64(si.MemBytes) + int64(si.MemBytes2)
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

	switch si.Branch {
	case machine.BranchCall:
		callee := p.sym.FuncOf(si.Target)
		p.stack = append(p.stack, frame{n: n.child(callee), ret: si.Next})
	case machine.BranchReturn:
		// Pop the frame whose call will resume at the return target, plus
		// anything above it (frames abandoned by unmatched calls). An
		// unmatched return is treated as a jump; the next step's boundary
		// check re-synchronizes the top frame.
		for i := len(p.stack) - 1; i > 0; i-- {
			if p.stack[i].ret == si.Target {
				p.stack = p.stack[:i]
				break
			}
		}
	}
}

// Heat returns the dictionary-entry heat map (index = rank): how many
// codeword fetches began expanding each entry.
func (p *Profiler) Heat() []int64 { return p.heat }

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
