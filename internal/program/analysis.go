package program

import (
	"fmt"
	"math"

	"repro/internal/ppc"
)

// Analysis is the post-compilation view the compressor needs: basic-block
// leaders, branch targets, and per-word classification. It is recovered
// from the linked binary (words + symbols + jump-table relocations), the
// same information a real post-compilation analyzer has.
type Analysis struct {
	// Leader[i] is true when text word i starts a basic block. Dictionary
	// entries may not span a leader (branches may target codewords but not
	// the middle of an encoded sequence, §3.1.1).
	Leader []bool

	// Target[i] holds the target word index of the relative branch at
	// word i, and -1 when word i is not a relative branch.
	Target []int32
}

// Analyze recovers basic-block structure from a linked program. Leaders
// are: function entries (symbols), the entry point, every relative-branch
// target, every jump-table target, and every instruction following any
// branch (conditional, unconditional or indirect).
func Analyze(p *Program) (*Analysis, error) {
	n := len(p.Text)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("program: %d text words overflow the 32-bit targets", n)
	}
	a := &Analysis{
		Leader: make([]bool, n),
		Target: make([]int32, n),
	}
	if n == 0 {
		return a, nil
	}
	a.Leader[0] = true
	if p.Entry < n {
		a.Leader[p.Entry] = true
	}
	for _, s := range p.Symbols {
		a.Leader[s.Word] = true
	}
	jts, err := p.JumpTableTargets()
	if err != nil {
		return nil, err
	}
	for _, t := range jts {
		a.Leader[t] = true
	}
	for i, w := range p.Text {
		a.Target[i] = -1
		if ppc.IsRelativeBranch(w) {
			disp, _ := ppc.RelDisplacement(w)
			if disp%4 != 0 {
				return nil, fmt.Errorf("program: unaligned displacement at word %d", i)
			}
			t := i + int(disp)/4
			if t < 0 || t >= n {
				return nil, fmt.Errorf("program: branch at word %d exits text (target %d)", i, t)
			}
			a.Target[i] = int32(t)
			a.Leader[t] = true
		}
		if ppc.IsBranch(w) && i+1 < n {
			a.Leader[i+1] = true
		}
	}
	return a, nil
}

// Blocks returns the basic blocks as word-index ranges in layout order.
func (a *Analysis) Blocks() []Range {
	var out []Range
	start := -1
	for i := range a.Leader {
		if a.Leader[i] {
			if start >= 0 {
				out = append(out, Range{start, i})
			}
			start = i
		}
	}
	if start >= 0 {
		out = append(out, Range{start, len(a.Leader)})
	}
	return out
}

// BlockCount returns the number of basic blocks.
func (a *Analysis) BlockCount() int {
	n := 0
	for _, l := range a.Leader {
		if l {
			n++
		}
	}
	return n
}
