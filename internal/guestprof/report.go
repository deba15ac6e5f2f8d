package guestprof

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// FuncProfile is one function's attribution: flat (instructions executing
// inside the function itself) and cumulative (instructions executing while
// the function was anywhere on the call stack, counted once per cycle even
// under recursion).
type FuncProfile struct {
	Name string `json:"name"`
	Flat Counts `json:"flat"`
	Cum  Counts `json:"cum"`
}

// Profile is the JSON-serializable result of a profiled run. Functions are
// ordered hottest-first by flat cycles (ties by name), and Total is the
// exact sum of every function's flat counts — equal to the machine's step
// count for cycles.
type Profile struct {
	Name  string        `json:"name,omitempty"`
	Total Counts        `json:"total"`
	Funcs []FuncProfile `json:"funcs,omitempty"`
}

// FuncByName finds a function's row, for native-vs-compressed diffing.
func (p *Profile) FuncByName(name string) (FuncProfile, bool) {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return FuncProfile{}, false
}

// walk visits every call-tree node depth-first in deterministic (function
// id) order, passing the path of function ids from the root's child down
// to the node itself.
func (p *Profiler) walk(visit func(path []int, c Counts)) {
	var path []int
	var dfs func(n *node)
	dfs = func(n *node) {
		if n != p.root {
			path = append(path, n.fn)
			visit(path, n.c)
		}
		kids := slices.Clone(n.kids)
		slices.SortFunc(kids, func(a, b *node) int { return a.fn - b.fn })
		for _, k := range kids {
			dfs(k)
		}
		if n != p.root {
			path = path[:len(path)-1]
		}
	}
	dfs(p.root)
}

// Profile aggregates the call tree into per-function flat and cumulative
// counts. The name labels the run (benchmark name, image name, …).
func (p *Profiler) Profile(name string) *Profile {
	nf := p.sym.NumFuncs()
	flat := make([]Counts, nf+1) // index fn+1; 0 is the unknown function
	cum := make([]Counts, nf+1)
	onPath := make([]int, nf+1)
	prof := &Profile{Name: name}
	p.walk(func(path []int, c Counts) {
		// One pass per node: flat to the node's own function, cumulative to
		// every *distinct* function on the path (recursion counts once).
		for _, fn := range path {
			onPath[fn+1]++
		}
		flat[path[len(path)-1]+1].add(c)
		for _, fn := range path {
			if onPath[fn+1] > 0 {
				cum[fn+1].add(c)
				onPath[fn+1] = -1 << 30 // visited marker for this node
			}
		}
		for _, fn := range path {
			onPath[fn+1] = 0
		}
		prof.Total.add(c)
	})
	for i := range flat {
		if flat[i] == (Counts{}) && cum[i] == (Counts{}) {
			continue
		}
		prof.Funcs = append(prof.Funcs, FuncProfile{
			Name: p.sym.Name(i - 1),
			Flat: flat[i],
			Cum:  cum[i],
		})
	}
	prof.sortHottest()
	return prof
}

// sortHottest orders the functions hottest-first by flat cycles, ties by
// name — the order both profilers report in.
func (prof *Profile) sortHottest() {
	sort.SliceStable(prof.Funcs, func(a, b int) bool {
		if prof.Funcs[a].Flat.Cycles != prof.Funcs[b].Flat.Cycles {
			return prof.Funcs[a].Flat.Cycles > prof.Funcs[b].Flat.Cycles
		}
		return prof.Funcs[a].Name < prof.Funcs[b].Name
	})
}

// WriteFolded emits the call tree as folded stacks — one line per distinct
// stack with its cycle count ("main;compress;emit 1234"), the input format
// of standard flamegraph tooling. Lines are sorted lexicographically so
// output is deterministic; zero-cycle interior nodes are omitted (their
// descendants still carry the full path).
func (p *Profiler) WriteFolded(w io.Writer) error {
	var lines []string
	var sb strings.Builder
	p.walk(func(path []int, c Counts) {
		if c.Cycles == 0 {
			return
		}
		sb.Reset()
		for i, fn := range path {
			if i > 0 {
				sb.WriteByte(';')
			}
			sb.WriteString(p.sym.Name(fn))
		}
		fmt.Fprintf(&sb, " %d", c.Cycles)
		lines = append(lines, sb.String())
	})
	sort.Strings(lines)
	for _, ln := range lines {
		if _, err := fmt.Fprintln(w, ln); err != nil {
			return err
		}
	}
	return nil
}
