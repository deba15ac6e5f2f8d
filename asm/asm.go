// Package asm is the public assembler surface of the code-density
// library: builders for the PowerPC-subset instruction words accepted by
// codedensity.Builder, a one-instruction parser and a disassembler, and
// the simulator's syscall numbers. It re-exports the internal ppc and
// machine primitives that downstream programs need to construct runnable
// modules. Parse and Disassemble share one syntax table, so each reads
// what the other writes, and Parse rejects an operand too wide for its
// field rather than masking it.
package asm

import (
	"repro/internal/machine"
	"repro/internal/ppc"
)

// Syscall numbers for the sc instruction (selector in r0).
const (
	SysExit    = machine.SysExit    // r3 = status
	SysPutchar = machine.SysPutchar // r3 = byte
	SysPutint  = machine.SysPutint  // r3 = signed integer
	SysPuts    = machine.SysPuts    // r3 = NUL-terminated string address
)

// Disassemble renders an instruction word with standard mnemonics.
func Disassemble(w uint32) string { return ppc.Disassemble(w) }

// Parse assembles one instruction in Disassemble's syntax.
// Parse(Disassemble(w)) == w for every valid word.
func Parse(src string) (uint32, error) { return ppc.Assemble(src) }

// ParseAll assembles one instruction per line, skipping blanks and '#'
// comments.
func ParseAll(src string) ([]uint32, error) { return ppc.AssembleAll(src) }

// Arithmetic and logical instructions.
var (
	Addi   = ppc.Addi
	Addis  = ppc.Addis
	Li     = ppc.Li
	Lis    = ppc.Lis
	Ori    = ppc.Ori
	Oris   = ppc.Oris
	AndiRc = ppc.AndiRc
	Xori   = ppc.Xori
	Nop    = ppc.Nop
	Mr     = ppc.Mr
	Add    = ppc.Add
	Subf   = ppc.Subf
	Neg    = ppc.Neg
	Mullw  = ppc.Mullw
	Divw   = ppc.Divw
	And    = ppc.And
	Or     = ppc.Or
	Xor    = ppc.Xor
	Nor    = ppc.Nor
	Slw    = ppc.Slw
	Srw    = ppc.Srw
	Sraw   = ppc.Sraw
	Srawi  = ppc.Srawi
	Extsb  = ppc.Extsb
	Extsh  = ppc.Extsh
	Rlwinm = ppc.Rlwinm
	Clrlwi = ppc.Clrlwi
	Slwi   = ppc.Slwi
	Srwi   = ppc.Srwi
)

// Compares.
var (
	Cmpwi  = ppc.Cmpwi
	Cmplwi = ppc.Cmplwi
	Cmpw   = ppc.Cmpw
	Cmplw  = ppc.Cmplw
)

// Loads and stores.
var (
	Lwz  = ppc.Lwz
	Lbz  = ppc.Lbz
	Lhz  = ppc.Lhz
	Stw  = ppc.Stw
	Stb  = ppc.Stb
	Sth  = ppc.Sth
	Stwu = ppc.Stwu
	Lmw  = ppc.Lmw
	Stmw = ppc.Stmw
	Lwzx = ppc.Lwzx
	Stwx = ppc.Stwx
	Lbzx = ppc.Lbzx
	Lhzx = ppc.Lhzx
	Stbx = ppc.Stbx
	Sthx = ppc.Sthx
)

// Branches. Displacement arguments are placeholders (use 0) when the word
// is passed to Builder.Branch, which resolves labels at link time.
var (
	B     = ppc.B
	Bl    = ppc.Bl
	Bc    = ppc.Bc
	Blt   = ppc.Blt
	Bgt   = ppc.Bgt
	Beq   = ppc.Beq
	Bge   = ppc.Bge
	Ble   = ppc.Ble
	Bne   = ppc.Bne
	Bdnz  = ppc.Bdnz
	Blr   = ppc.Blr
	Bctr  = ppc.Bctr
	Bctrl = ppc.Bctrl
)

// Special-purpose register moves and system call.
var (
	Mflr  = ppc.Mflr
	Mtlr  = ppc.Mtlr
	Mfctr = ppc.Mfctr
	Mtctr = ppc.Mtctr
	Sc    = ppc.Sc
)
