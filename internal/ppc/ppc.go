// Package ppc implements the 32-bit PowerPC instruction-set subset used by
// the code-compression study: authentic big-endian encodings for the D, I,
// B, X, XO, XL and M instruction forms, an assembler-style builder API, a
// decoder, one syntax table read by both the disassembler and the
// assembler, and the reserved (illegal) primary opcodes that form the
// escape bytes of the baseline compression scheme.
//
// The subset is executable: every opcode defined here has semantics in the
// machine package. Field layout follows the IBM convention where bit 0 is
// the most significant bit of the 32-bit word; the primary opcode occupies
// bits 0..5, i.e. (word >> 26) & 0x3F.
package ppc

import "fmt"

// Op identifies a decoded instruction's operation. The zero value OpInvalid
// marks words that do not decode under the subset (including words whose
// primary opcode is reserved for compression escapes).
type Op uint8

// Operations in the subset.
const (
	OpInvalid Op = iota

	// D-form arithmetic/logical with immediate.
	OpAddi  // addi rD,rA,SIMM (rA=0 reads as literal 0: li)
	OpAddis // addis rD,rA,SIMM (lis)
	OpOri   // ori rA,rS,UIMM (ori 0,0,0 is the canonical nop)
	OpOris  // oris rA,rS,UIMM
	OpAndiRc
	OpXori

	// D-form compares.
	OpCmpwi  // cmpwi crfD,rA,SIMM
	OpCmplwi // cmplwi crfD,rA,UIMM

	// D-form loads/stores.
	OpLwz
	OpLbz
	OpLhz
	OpStw
	OpStb
	OpSth
	OpStwu
	OpLmw
	OpStmw

	// I-form and B-form branches.
	OpB  // b/ba/bl/bla depending on AA/LK
	OpBc // conditional branch

	// XL-form branches through SPRs.
	OpBclr  // blr and conditional variants
	OpBcctr // bctr

	// XO-form integer arithmetic.
	OpAdd
	OpSubf
	OpNeg
	OpMullw
	OpDivw

	// X-form logical/shift/compare/extend.
	OpAnd
	OpOr // also mr rA,rS
	OpXor
	OpNor
	OpSlw
	OpSrw
	OpSraw
	OpSrawi
	OpCmpw
	OpCmplw
	OpExtsb
	OpExtsh
	OpLwzx
	OpStwx
	OpLbzx
	OpLhzx
	OpStbx
	OpSthx

	// Move to/from special purpose registers.
	OpMfspr // mflr, mfctr
	OpMtspr // mtlr, mtctr

	// M-form rotate.
	OpRlwinm

	// System call.
	OpSc

	opCount // sentinel
)

// Form classifies the encoding layout of an operation.
type Form uint8

// Encoding forms present in the subset.
const (
	FormD Form = iota
	FormI
	FormB
	FormXL
	FormX
	FormXO
	FormM
	FormSC
)

// Primary opcode values (bits 0..5).
const (
	pocCmplwi = 10
	pocCmpwi  = 11
	pocAddi   = 14
	pocAddis  = 15
	pocBc     = 16
	pocSc     = 17
	pocB      = 18
	pocXL     = 19
	pocRlwinm = 21
	pocOri    = 24
	pocOris   = 25
	pocXori   = 26
	pocAndiRc = 28
	pocX      = 31
	pocLwz    = 32
	pocLbz    = 34
	pocStw    = 36
	pocStwu   = 37
	pocStb    = 38
	pocLhz    = 40
	pocSth    = 44
	pocLmw    = 46
	pocStmw   = 47
)

// Extended opcodes under primary 31 (X-form, 10 bits) and XO-form (9 bits).
const (
	xoCmpw  = 0
	xoLwzx  = 23
	xoSlw   = 24
	xoAnd   = 28
	xoCmplw = 32
	xoLbzx  = 87
	xoNor   = 124
	xoStwx  = 151
	xoStbx  = 215
	xoLhzx  = 279
	xoSthx  = 407
	xoMfspr = 339
	xoXor   = 316
	xoMtspr = 467
	xoOr    = 444
	xoSrw   = 536
	xoSraw  = 792
	xoSrawi = 824
	xoExtsh = 922
	xoExtsb = 954

	xo9Subf  = 40
	xo9Neg   = 104
	xo9Mullw = 235
	xo9Add   = 266
	xo9Divw  = 491
)

// Extended opcodes under primary 19 (XL-form).
const (
	xlBclr  = 16
	xlBcctr = 528
)

// Special purpose register numbers.
const (
	SprLR  = 8
	SprCTR = 9
)

// Condition-register bit positions within a CR field.
const (
	CrLT = 0
	CrGT = 1
	CrEQ = 2
	CrSO = 3
)

// Common BO field values for conditional branches.
const (
	BoFalse  = 4  // branch if CR bit is 0
	BoTrue   = 12 // branch if CR bit is 1
	BoDnz    = 16 // decrement CTR, branch if CTR != 0
	BoAlways = 20 // branch unconditionally
)

// opInfo carries per-operation metadata.
type opInfo struct {
	name string
	form Form
}

var opTable = [opCount]opInfo{
	OpInvalid: {"<invalid>", FormD},
	OpAddi:    {"addi", FormD},
	OpAddis:   {"addis", FormD},
	OpOri:     {"ori", FormD},
	OpOris:    {"oris", FormD},
	OpAndiRc:  {"andi.", FormD},
	OpXori:    {"xori", FormD},
	OpCmpwi:   {"cmpwi", FormD},
	OpCmplwi:  {"cmplwi", FormD},
	OpLwz:     {"lwz", FormD},
	OpLbz:     {"lbz", FormD},
	OpLhz:     {"lhz", FormD},
	OpStw:     {"stw", FormD},
	OpStb:     {"stb", FormD},
	OpSth:     {"sth", FormD},
	OpStwu:    {"stwu", FormD},
	OpLmw:     {"lmw", FormD},
	OpStmw:    {"stmw", FormD},
	OpB:       {"b", FormI},
	OpBc:      {"bc", FormB},
	OpBclr:    {"bclr", FormXL},
	OpBcctr:   {"bcctr", FormXL},
	OpAdd:     {"add", FormXO},
	OpSubf:    {"subf", FormXO},
	OpNeg:     {"neg", FormXO},
	OpMullw:   {"mullw", FormXO},
	OpDivw:    {"divw", FormXO},
	OpAnd:     {"and", FormX},
	OpOr:      {"or", FormX},
	OpXor:     {"xor", FormX},
	OpNor:     {"nor", FormX},
	OpSlw:     {"slw", FormX},
	OpSrw:     {"srw", FormX},
	OpSraw:    {"sraw", FormX},
	OpSrawi:   {"srawi", FormX},
	OpCmpw:    {"cmpw", FormX},
	OpCmplw:   {"cmplw", FormX},
	OpExtsb:   {"extsb", FormX},
	OpExtsh:   {"extsh", FormX},
	OpLwzx:    {"lwzx", FormX},
	OpStwx:    {"stwx", FormX},
	OpLbzx:    {"lbzx", FormX},
	OpLhzx:    {"lhzx", FormX},
	OpStbx:    {"stbx", FormX},
	OpSthx:    {"sthx", FormX},
	OpMfspr:   {"mfspr", FormX},
	OpMtspr:   {"mtspr", FormX},
	OpRlwinm:  {"rlwinm", FormM},
	OpSc:      {"sc", FormSC},
}

// Name returns the base mnemonic of the operation.
func (op Op) Name() string {
	if op >= opCount {
		return "<bad>"
	}
	return opTable[op].name
}

// Form returns the encoding form of the operation.
func (op Op) Form() Form {
	if op >= opCount {
		return FormD
	}
	return opTable[op].form
}

func (op Op) String() string { return op.Name() }

// ReservedOpcodes lists the eight primary opcode values that are illegal in
// the 32-bit PowerPC subset and are therefore available as compression
// escapes, per the paper ("PowerPC has 8 illegal 6-bit opcodes").
var ReservedOpcodes = [8]uint8{0, 1, 4, 5, 6, 22, 56, 57}

// IsReservedOpcode reports whether the 6-bit primary opcode is one of the
// eight reserved values.
func IsReservedOpcode(poc uint8) bool {
	switch poc {
	case 0, 1, 4, 5, 6, 22, 56, 57:
		return true
	}
	return false
}

// EscapeBytes returns the 32 byte values whose top six bits are a reserved
// primary opcode. A compressed-program fetch unit recognizes a codeword by
// its first byte being one of these values ("By using all 8 illegal opcodes
// and all possible patterns of the remaining 2 bits in the byte, we can
// have up to 32 different escape bytes").
func EscapeBytes() []byte {
	out := make([]byte, 0, 32)
	for _, poc := range ReservedOpcodes {
		for low := 0; low < 4; low++ {
			out = append(out, poc<<2|uint8(low))
		}
	}
	return out
}

// IsEscapeByte reports whether b marks the start of a codeword, i.e. its
// top six bits are a reserved primary opcode.
func IsEscapeByte(b byte) bool { return IsReservedOpcode(b >> 2) }

// PrimaryOpcode extracts bits 0..5 of an instruction word.
func PrimaryOpcode(w uint32) uint8 { return uint8(w >> 26) }

// Inst is a decoded instruction. Fields are populated according to the
// operation's form; unused fields are zero. RT doubles as RS for store and
// logical forms where the source register occupies bits 6..10.
type Inst struct {
	Op      Op
	RT      uint8 // RT or RS (bits 6..10)
	RA      uint8
	RB      uint8
	CRF     uint8 // crfD for compares
	BO      uint8
	BI      uint8
	SH      uint8 // shift amount (srawi, rlwinm)
	MB      uint8
	ME      uint8
	SPR     uint16
	Imm     int32 // SIMM sign-extended, UIMM zero-extended, or branch displacement in bytes
	AA      bool
	LK      bool
	Rc      bool
	Syscall bool // true for sc
}

func (i Inst) String() string { return Disassemble(Encode(i)) }

// signExt16 sign-extends the low 16 bits of v.
func signExt16(v uint32) int32 { return int32(int16(uint16(v))) }

// signExt extends an n-bit two's-complement value.
func signExt(v uint32, n uint) int32 {
	shift := 32 - n
	return int32(v<<shift) >> shift
}

// fitsSigned reports whether v fits in an n-bit two's-complement field.
func fitsSigned(v int32, n uint) bool {
	lim := int32(1) << (n - 1)
	return v >= -lim && v < lim
}

// Encode packs a decoded instruction back into its 32-bit word. Encoding an
// instruction produced by Decode always round-trips. Encode panics on an
// Inst whose fields are out of range, since that indicates a programming
// error in a code generator rather than bad input data.
func Encode(i Inst) uint32 {
	reg := func(r uint8) uint32 {
		if r > 31 {
			panic(fmt.Sprintf("ppc: register %d out of range in %s", r, i.Op))
		}
		return uint32(r)
	}
	b2u := func(b bool) uint32 {
		if b {
			return 1
		}
		return 0
	}
	switch i.Op {
	case OpAddi, OpAddis, OpLwz, OpLbz, OpLhz, OpStw, OpStb, OpSth, OpStwu, OpLmw, OpStmw:
		if !fitsSigned(i.Imm, 16) {
			panic(fmt.Sprintf("ppc: immediate %d out of range in %s", i.Imm, i.Op))
		}
		return dPrimary(i.Op)<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | uint32(uint16(i.Imm))
	case OpOri, OpOris, OpAndiRc, OpXori:
		if i.Imm < 0 || i.Imm > 0xFFFF {
			panic(fmt.Sprintf("ppc: uimm %d out of range in %s", i.Imm, i.Op))
		}
		// Logical D-forms put RS in bits 6..10 and RA in bits 11..15.
		return dPrimary(i.Op)<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | uint32(uint16(i.Imm))
	case OpCmpwi:
		if !fitsSigned(i.Imm, 16) {
			panic(fmt.Sprintf("ppc: immediate %d out of range in cmpwi", i.Imm))
		}
		return pocCmpwi<<26 | uint32(i.CRF&7)<<23 | reg(i.RA)<<16 | uint32(uint16(i.Imm))
	case OpCmplwi:
		if i.Imm < 0 || i.Imm > 0xFFFF {
			panic(fmt.Sprintf("ppc: uimm %d out of range in cmplwi", i.Imm))
		}
		return pocCmplwi<<26 | uint32(i.CRF&7)<<23 | reg(i.RA)<<16 | uint32(uint16(i.Imm))
	case OpB:
		// Imm is a byte displacement; the LI field holds Imm>>2 in the
		// standard encoding. Compression re-scales this field: see SetLIField.
		if i.Imm&3 != 0 || !fitsSigned(i.Imm>>2, 24) {
			panic(fmt.Sprintf("ppc: branch displacement %d unencodable", i.Imm))
		}
		return pocB<<26 | uint32(i.Imm)&0x03FFFFFC | b2u(i.AA)<<1 | b2u(i.LK)
	case OpBc:
		if i.Imm&3 != 0 || !fitsSigned(i.Imm>>2, 14) {
			panic(fmt.Sprintf("ppc: conditional branch displacement %d unencodable", i.Imm))
		}
		return pocBc<<26 | uint32(i.BO&0x1F)<<21 | uint32(i.BI&0x1F)<<16 |
			uint32(i.Imm)&0xFFFC | b2u(i.AA)<<1 | b2u(i.LK)
	case OpBclr:
		return pocXL<<26 | uint32(i.BO&0x1F)<<21 | uint32(i.BI&0x1F)<<16 | xlBclr<<1 | b2u(i.LK)
	case OpBcctr:
		return pocXL<<26 | uint32(i.BO&0x1F)<<21 | uint32(i.BI&0x1F)<<16 | xlBcctr<<1 | b2u(i.LK)
	case OpAdd, OpSubf, OpMullw, OpDivw:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | reg(i.RB)<<11 | xo9(i.Op)<<1 | b2u(i.Rc)
	case OpNeg:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | xo9Neg<<1 | b2u(i.Rc)
	case OpAnd, OpOr, OpXor, OpNor, OpSlw, OpSrw, OpSraw:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | reg(i.RB)<<11 | xo10(i.Op)<<1 | b2u(i.Rc)
	case OpSrawi:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | uint32(i.SH&0x1F)<<11 | xoSrawi<<1 | b2u(i.Rc)
	case OpCmpw:
		return pocX<<26 | uint32(i.CRF&7)<<23 | reg(i.RA)<<16 | reg(i.RB)<<11 | xoCmpw<<1
	case OpCmplw:
		return pocX<<26 | uint32(i.CRF&7)<<23 | reg(i.RA)<<16 | reg(i.RB)<<11 | xoCmplw<<1
	case OpExtsb:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | xoExtsb<<1 | b2u(i.Rc)
	case OpExtsh:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | xoExtsh<<1 | b2u(i.Rc)
	case OpLwzx:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | reg(i.RB)<<11 | xoLwzx<<1
	case OpStwx:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | reg(i.RB)<<11 | xoStwx<<1
	case OpLbzx:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | reg(i.RB)<<11 | xoLbzx<<1
	case OpLhzx:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | reg(i.RB)<<11 | xoLhzx<<1
	case OpStbx:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | reg(i.RB)<<11 | xoStbx<<1
	case OpSthx:
		return pocX<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 | reg(i.RB)<<11 | xoSthx<<1
	case OpMfspr:
		return pocX<<26 | reg(i.RT)<<21 | sprField(i.SPR)<<11 | xoMfspr<<1
	case OpMtspr:
		return pocX<<26 | reg(i.RT)<<21 | sprField(i.SPR)<<11 | xoMtspr<<1
	case OpRlwinm:
		return pocRlwinm<<26 | reg(i.RT)<<21 | reg(i.RA)<<16 |
			uint32(i.SH&0x1F)<<11 | uint32(i.MB&0x1F)<<6 | uint32(i.ME&0x1F)<<1 | b2u(i.Rc)
	case OpSc:
		return pocSc<<26 | 2
	}
	panic(fmt.Sprintf("ppc: cannot encode op %v", i.Op))
}

func dPrimary(op Op) uint32 {
	switch op {
	case OpAddi:
		return pocAddi
	case OpAddis:
		return pocAddis
	case OpOri:
		return pocOri
	case OpOris:
		return pocOris
	case OpAndiRc:
		return pocAndiRc
	case OpXori:
		return pocXori
	case OpLwz:
		return pocLwz
	case OpLbz:
		return pocLbz
	case OpLhz:
		return pocLhz
	case OpStw:
		return pocStw
	case OpStb:
		return pocStb
	case OpSth:
		return pocSth
	case OpStwu:
		return pocStwu
	case OpLmw:
		return pocLmw
	case OpStmw:
		return pocStmw
	}
	panic("ppc: not a D-form op")
}

func xo9(op Op) uint32 {
	switch op {
	case OpAdd:
		return xo9Add
	case OpSubf:
		return xo9Subf
	case OpMullw:
		return xo9Mullw
	case OpDivw:
		return xo9Divw
	}
	panic("ppc: not an XO-form op")
}

func xo10(op Op) uint32 {
	switch op {
	case OpAnd:
		return xoAnd
	case OpOr:
		return xoOr
	case OpXor:
		return xoXor
	case OpNor:
		return xoNor
	case OpSlw:
		return xoSlw
	case OpSrw:
		return xoSrw
	case OpSraw:
		return xoSraw
	}
	panic("ppc: not an X-form logical op")
}

// sprField packs a 10-bit SPR number into the split field layout used by
// mfspr/mtspr (low five bits in the high half of the field).
func sprField(spr uint16) uint32 {
	return uint32(spr&0x1F)<<5 | uint32(spr>>5)&0x1F
}

func sprUnfield(f uint32) uint16 {
	return uint16(f>>5&0x1F) | uint16(f&0x1F)<<5
}

// Decode cracks a 32-bit instruction word. Words that do not match the
// subset decode to an Inst with Op == OpInvalid; callers treat such words
// as data or as compression escapes.
func Decode(w uint32) Inst {
	poc := PrimaryOpcode(w)
	rt := uint8(w >> 21 & 0x1F)
	ra := uint8(w >> 16 & 0x1F)
	rb := uint8(w >> 11 & 0x1F)
	switch poc {
	case pocAddi:
		return Inst{Op: OpAddi, RT: rt, RA: ra, Imm: signExt16(w)}
	case pocAddis:
		return Inst{Op: OpAddis, RT: rt, RA: ra, Imm: signExt16(w)}
	case pocOri:
		return Inst{Op: OpOri, RT: rt, RA: ra, Imm: int32(w & 0xFFFF)}
	case pocOris:
		return Inst{Op: OpOris, RT: rt, RA: ra, Imm: int32(w & 0xFFFF)}
	case pocAndiRc:
		return Inst{Op: OpAndiRc, RT: rt, RA: ra, Imm: int32(w & 0xFFFF), Rc: true}
	case pocXori:
		return Inst{Op: OpXori, RT: rt, RA: ra, Imm: int32(w & 0xFFFF)}
	case pocCmpwi:
		if rt&3 != 0 { // reserved bit and L must be zero
			break
		}
		return Inst{Op: OpCmpwi, CRF: uint8(w >> 23 & 7), RA: ra, Imm: signExt16(w)}
	case pocCmplwi:
		if rt&3 != 0 {
			break
		}
		return Inst{Op: OpCmplwi, CRF: uint8(w >> 23 & 7), RA: ra, Imm: int32(w & 0xFFFF)}
	case pocLwz:
		return Inst{Op: OpLwz, RT: rt, RA: ra, Imm: signExt16(w)}
	case pocLbz:
		return Inst{Op: OpLbz, RT: rt, RA: ra, Imm: signExt16(w)}
	case pocLhz:
		return Inst{Op: OpLhz, RT: rt, RA: ra, Imm: signExt16(w)}
	case pocStw:
		return Inst{Op: OpStw, RT: rt, RA: ra, Imm: signExt16(w)}
	case pocStb:
		return Inst{Op: OpStb, RT: rt, RA: ra, Imm: signExt16(w)}
	case pocSth:
		return Inst{Op: OpSth, RT: rt, RA: ra, Imm: signExt16(w)}
	case pocStwu:
		return Inst{Op: OpStwu, RT: rt, RA: ra, Imm: signExt16(w)}
	case pocLmw:
		return Inst{Op: OpLmw, RT: rt, RA: ra, Imm: signExt16(w)}
	case pocStmw:
		return Inst{Op: OpStmw, RT: rt, RA: ra, Imm: signExt16(w)}
	case pocB:
		return Inst{Op: OpB, Imm: signExt(w>>2&0xFFFFFF, 24) << 2, AA: w>>1&1 == 1, LK: w&1 == 1}
	case pocBc:
		return Inst{Op: OpBc, BO: rt, BI: ra, Imm: signExt(w>>2&0x3FFF, 14) << 2,
			AA: w>>1&1 == 1, LK: w&1 == 1}
	case pocSc:
		if w == pocSc<<26|2 {
			return Inst{Op: OpSc, Syscall: true}
		}
	case pocRlwinm:
		return Inst{Op: OpRlwinm, RT: rt, RA: ra, SH: rb,
			MB: uint8(w >> 6 & 0x1F), ME: uint8(w >> 1 & 0x1F), Rc: w&1 == 1}
	case pocXL:
		if rb != 0 { // BH and reserved bits must be zero
			break
		}
		switch w >> 1 & 0x3FF {
		case xlBclr:
			return Inst{Op: OpBclr, BO: rt, BI: ra, LK: w&1 == 1}
		case xlBcctr:
			return Inst{Op: OpBcctr, BO: rt, BI: ra, LK: w&1 == 1}
		}
	case pocX:
		rc := w&1 == 1
		switch w >> 1 & 0x3FF {
		case xoCmpw:
			if rt&3 != 0 || rc {
				break
			}
			return Inst{Op: OpCmpw, CRF: uint8(w >> 23 & 7), RA: ra, RB: rb}
		case xoCmplw:
			if rt&3 != 0 || rc {
				break
			}
			return Inst{Op: OpCmplw, CRF: uint8(w >> 23 & 7), RA: ra, RB: rb}
		case xoAnd:
			return Inst{Op: OpAnd, RT: rt, RA: ra, RB: rb, Rc: rc}
		case xoOr:
			return Inst{Op: OpOr, RT: rt, RA: ra, RB: rb, Rc: rc}
		case xoXor:
			return Inst{Op: OpXor, RT: rt, RA: ra, RB: rb, Rc: rc}
		case xoNor:
			return Inst{Op: OpNor, RT: rt, RA: ra, RB: rb, Rc: rc}
		case xoSlw:
			return Inst{Op: OpSlw, RT: rt, RA: ra, RB: rb, Rc: rc}
		case xoSrw:
			return Inst{Op: OpSrw, RT: rt, RA: ra, RB: rb, Rc: rc}
		case xoSraw:
			return Inst{Op: OpSraw, RT: rt, RA: ra, RB: rb, Rc: rc}
		case xoSrawi:
			return Inst{Op: OpSrawi, RT: rt, RA: ra, SH: rb, Rc: rc}
		case xoExtsb:
			if rb != 0 {
				break
			}
			return Inst{Op: OpExtsb, RT: rt, RA: ra, Rc: rc}
		case xoExtsh:
			if rb != 0 {
				break
			}
			return Inst{Op: OpExtsh, RT: rt, RA: ra, Rc: rc}
		case xoLwzx:
			if rc {
				break
			}
			return Inst{Op: OpLwzx, RT: rt, RA: ra, RB: rb}
		case xoStwx:
			if rc {
				break
			}
			return Inst{Op: OpStwx, RT: rt, RA: ra, RB: rb}
		case xoLbzx:
			if rc {
				break
			}
			return Inst{Op: OpLbzx, RT: rt, RA: ra, RB: rb}
		case xoLhzx:
			if rc {
				break
			}
			return Inst{Op: OpLhzx, RT: rt, RA: ra, RB: rb}
		case xoStbx:
			if rc {
				break
			}
			return Inst{Op: OpStbx, RT: rt, RA: ra, RB: rb}
		case xoSthx:
			if rc {
				break
			}
			return Inst{Op: OpSthx, RT: rt, RA: ra, RB: rb}
		case xoMfspr:
			if rc {
				break
			}
			return Inst{Op: OpMfspr, RT: rt, SPR: sprUnfield(w >> 11 & 0x3FF)}
		case xoMtspr:
			if rc {
				break
			}
			return Inst{Op: OpMtspr, RT: rt, SPR: sprUnfield(w >> 11 & 0x3FF)}
		}
		if w>>10&1 == 1 {
			break // OE forms are outside the subset
		}
		switch w >> 1 & 0x1FF {
		case xo9Add:
			return Inst{Op: OpAdd, RT: rt, RA: ra, RB: rb, Rc: rc}
		case xo9Subf:
			return Inst{Op: OpSubf, RT: rt, RA: ra, RB: rb, Rc: rc}
		case xo9Neg:
			if rb != 0 {
				break
			}
			return Inst{Op: OpNeg, RT: rt, RA: ra, Rc: rc}
		case xo9Mullw:
			return Inst{Op: OpMullw, RT: rt, RA: ra, RB: rb, Rc: rc}
		case xo9Divw:
			return Inst{Op: OpDivw, RT: rt, RA: ra, RB: rb, Rc: rc}
		}
	}
	return Inst{Op: OpInvalid}
}

// Valid reports whether the word decodes under the subset.
func Valid(w uint32) bool { return Decode(w).Op != OpInvalid }
