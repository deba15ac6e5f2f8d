// Package program models linked PowerPC object modules: the text section as
// instruction words, the data section, function symbols, jump tables, and
// the prologue/epilogue ranges the synthetic compiler marks. It provides
// the builder used by code generators, the linker that resolves symbolic
// branch targets into displacement fields, and the control-flow analysis
// (basic-block leader recovery) the compressor depends on.
package program

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/ppc"
)

// Default load addresses. Text and data live in disjoint regions; the
// machine package maps both.
const (
	DefaultTextBase = 0x0001_0000
	DefaultDataBase = 0x0020_0000
)

// Range is a half-open interval of text word indices.
type Range struct {
	Start, End int
}

// Len returns the number of words covered.
func (r Range) Len() int { return r.End - r.Start }

// Symbol names a text address (function entry).
type Symbol struct {
	Name string
	Word int // text word index
}

// Program is a linked module ready for execution, analysis or compression.
type Program struct {
	Name     string
	Text     []uint32
	Data     []byte
	TextBase uint32
	DataBase uint32
	Entry    int // word index of the entry point

	Symbols []Symbol

	// JumpTableSlots are byte offsets into Data of 4-byte big-endian slots
	// holding absolute text addresses (switch tables). The compressor
	// patches these after relocating code.
	JumpTableSlots []int

	// Prologue and Epilogue are the word ranges emitted by the standard
	// function entry/exit templates, used for the Table 3 analysis.
	Prologue []Range
	Epilogue []Range
}

// SizeBytes returns the text-section size in bytes — the "original size"
// denominator of the paper's compression ratio (Eq. 1).
func (p *Program) SizeBytes() int { return 4 * len(p.Text) }

// EntryAddr returns the absolute entry address.
func (p *Program) EntryAddr() uint32 { return p.TextBase + uint32(p.Entry)*4 }

// WordAddr returns the absolute address of a text word index.
func (p *Program) WordAddr(idx int) uint32 { return p.TextBase + uint32(idx)*4 }

// AddrWord converts an absolute text address to a word index.
func (p *Program) AddrWord(addr uint32) (int, error) {
	if addr < p.TextBase || addr >= p.TextBase+uint32(4*len(p.Text)) {
		return 0, fmt.Errorf("program: address %#x outside text", addr)
	}
	if (addr-p.TextBase)%4 != 0 {
		return 0, fmt.Errorf("program: address %#x not word aligned", addr)
	}
	return int((addr - p.TextBase) / 4), nil
}

// SymbolAt returns the name of the symbol at the word index, or "".
func (p *Program) SymbolAt(word int) string {
	for _, s := range p.Symbols {
		if s.Word == word {
			return s.Name
		}
	}
	return ""
}

// JumpTableTargets reads every jump-table slot and converts the stored
// addresses to text word indices.
func (p *Program) JumpTableTargets() ([]int, error) {
	out := make([]int, 0, len(p.JumpTableSlots))
	for _, off := range p.JumpTableSlots {
		if off < 0 || off+4 > len(p.Data) {
			return nil, fmt.Errorf("program: jump table slot %d outside data", off)
		}
		addr := binary.BigEndian.Uint32(p.Data[off:])
		w, err := p.AddrWord(addr)
		if err != nil {
			return nil, fmt.Errorf("program: jump table slot %d: %v", off, err)
		}
		out = append(out, w)
	}
	return out, nil
}

// Validate performs structural checks: entry in range, symbols sorted and
// in range, ranges well formed, jump-table slots resolvable, and every
// relative branch landing on a text word.
func (p *Program) Validate() error {
	n := len(p.Text)
	if n == 0 {
		return fmt.Errorf("program %s: empty text", p.Name)
	}
	if p.Entry < 0 || p.Entry >= n {
		return fmt.Errorf("program %s: entry %d out of range", p.Name, p.Entry)
	}
	if !sort.SliceIsSorted(p.Symbols, func(i, j int) bool { return p.Symbols[i].Word < p.Symbols[j].Word }) {
		return fmt.Errorf("program %s: symbols not sorted", p.Name)
	}
	for _, s := range p.Symbols {
		if s.Word < 0 || s.Word >= n {
			return fmt.Errorf("program %s: symbol %s out of range", p.Name, s.Name)
		}
	}
	for _, rs := range [][]Range{p.Prologue, p.Epilogue} {
		for _, r := range rs {
			if r.Start < 0 || r.End > n || r.Start > r.End {
				return fmt.Errorf("program %s: bad range %+v", p.Name, r)
			}
		}
	}
	if _, err := p.JumpTableTargets(); err != nil {
		return err
	}
	for idx, w := range p.Text {
		if !ppc.IsRelativeBranch(w) {
			continue
		}
		disp, _ := ppc.RelDisplacement(w)
		t := idx + int(disp)/4
		if disp%4 != 0 || t < 0 || t >= n {
			return fmt.Errorf("program %s: branch at word %d targets %d (out of range)", p.Name, idx, t)
		}
	}
	return nil
}

// Clone returns a deep copy. Compression never writes to its input (each
// image owns its data and patches its own copy of the jump tables), so a
// program needs no clone before it is compressed.
func (p *Program) Clone() *Program {
	q := *p
	q.Text = append([]uint32(nil), p.Text...)
	q.Data = append([]byte(nil), p.Data...)
	q.Symbols = append([]Symbol(nil), p.Symbols...)
	q.JumpTableSlots = append([]int(nil), p.JumpTableSlots...)
	q.Prologue = append([]Range(nil), p.Prologue...)
	q.Epilogue = append([]Range(nil), p.Epilogue...)
	return &q
}

// TextBytes serializes the text section big-endian — the byte stream the
// whole-program comparators (LZW, Huffman) compress.
func (p *Program) TextBytes() []byte {
	out := make([]byte, 4*len(p.Text))
	for i, w := range p.Text {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
	return out
}
