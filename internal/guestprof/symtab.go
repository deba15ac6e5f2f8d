// Package guestprof is an exact (non-sampling) profiler for the simulated
// guest machine: it observes every executed instruction through the CPU's
// fetch journal (the TraceSlots hook, which leaves Run on the fused loop),
// tracks the guest call stack from link-setting branches and blr returns,
// and attributes cycles, fetched program-memory bytes,
// dictionary-expansion work and I-cache misses to symbolized guest
// functions — flat and cumulative. Because attribution is exact, the
// per-function cycle totals sum to the machine's step count, in both
// native and compressed runs; a compressed run symbolizes through the
// image's compressed↔native address map, so both profiles name the same
// functions and diff directly. The profiler also counts the per-rank
// dictionary-entry heat map behind a run profile's hot entries. Exporters:
// folded stacks for standard flamegraph tooling and a JSON profile, both
// stored as run-bundle sections.
package guestprof

import (
	"sort"

	"repro/internal/program"
)

// UnknownName labels addresses no symbol covers.
const UnknownName = "[unknown]"

// Func is one symbolized function: its name and start address in the
// symbol table's lookup space (native byte addresses for programs).
type Func struct {
	Name  string
	Start uint32
}

// SymTab resolves guest PCs to functions. Lookups optionally pass through
// a translation first (the compressed frontend's unit-address space maps
// to native text addresses this way), then floor-resolve against the
// sorted function starts. A PC outside [lo, hi) — or one the translation
// rejects — resolves to the unknown function.
type SymTab struct {
	funcs     []Func // sorted by Start
	lo, hi    uint32 // text bounds in lookup space
	translate func(pc uint32) (uint32, bool)
}

// NewSymTab builds a table over functions covering [lo, hi) in lookup
// space. The slice is copied and sorted by start address.
func NewSymTab(funcs []Func, lo, hi uint32) *SymTab {
	fs := append([]Func(nil), funcs...)
	sort.SliceStable(fs, func(i, j int) bool { return fs[i].Start < fs[j].Start })
	return &SymTab{funcs: fs, lo: lo, hi: hi}
}

// NewProgramSymTab builds the native symbol table of a linked program:
// lookup space is absolute text byte addresses.
func NewProgramSymTab(p *program.Program) *SymTab {
	funcs := make([]Func, len(p.Symbols))
	for i, s := range p.Symbols {
		funcs[i] = Func{Name: s.Name, Start: p.WordAddr(s.Word)}
	}
	return NewSymTab(funcs, p.TextBase, p.TextBase+uint32(4*len(p.Text)))
}

// WithTranslate returns a table that maps each PC through f before
// resolving it — the hook compressed images use to land unit addresses on
// native symbols.
func (t *SymTab) WithTranslate(f func(pc uint32) (uint32, bool)) *SymTab {
	u := *t
	u.translate = f
	return &u
}

// NumFuncs is the number of known functions; ids are 0..NumFuncs()-1.
func (t *SymTab) NumFuncs() int { return len(t.funcs) }

// FuncOf resolves a PC to a function id, or -1 when no symbol covers it.
func (t *SymTab) FuncOf(pc uint32) int {
	if t.translate != nil {
		var ok bool
		if pc, ok = t.translate(pc); !ok {
			return -1
		}
	}
	if pc < t.lo || pc >= t.hi {
		return -1
	}
	// Floor function: last start <= pc.
	i := sort.Search(len(t.funcs), func(i int) bool { return t.funcs[i].Start > pc }) - 1
	return i // -1 when pc precedes the first symbol
}

// Name returns a function's name; -1 (and any out-of-range id) yields the
// unknown marker.
func (t *SymTab) Name(id int) string {
	if id < 0 || id >= len(t.funcs) {
		return UnknownName
	}
	return t.funcs[id].Name
}
