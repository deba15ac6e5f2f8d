package machine

import (
	"sync"

	"repro/internal/ppc"
)

// This file is the decode stage's last step: Resolve turns a decoded
// ppc.Inst into the form the execute stage dispatches on. Everything that
// depends only on the encoding is decided here, once per table slot, so the
// fused loop (predecode.go) never re-decides it per step: the rA = 0 forms
// and mr get kinds of their own, immediates come extended and shifted, the
// rlwinm mask is built, and a relative branch carries its PC-space target.

// kind is the dense dispatch index of a resolved instruction: one case of
// runFast's switch each.
type kind uint8

// Resolved kinds. The comments give each kind's semantics over the
// Resolved fields; (rA|0) forms have a kind per value of rA.
const (
	kIllegal kind = iota // no instruction of the subset: faults

	kLi     // RT = Imm                       addi/addis rD,0,SIMM (li, lis)
	kAddi   // RT = RA + Imm                  addi, addis (Imm pre-shifted)
	kOri    // RA = RT | Imm                  ori, oris (Imm pre-shifted)
	kXori   // RA = RT ^ Imm
	kAndiRc // RA = RT & Imm, CR0

	kCmpwi  // CR[CRF] = RA <=> int32(Imm)
	kCmplwi // CR[CRF] = RA <=> Imm unsigned
	kCmpw   // CR[CRF] = RA <=> RB
	kCmplw  // CR[CRF] = RA <=> RB unsigned

	// D-form memory: EA = RA + Imm, or EA = Imm for the Abs kinds (rA = 0).
	// An X-form access with rA = 0 resolves to the D-form kind over RB.
	kLwz
	kLbz
	kLhz
	kStw
	kStb
	kSth
	kStwu // rA = 0 is an invalid form; EA is always RA + Imm
	kLmw
	kStmw
	kLwzAbs
	kLbzAbs
	kLhzAbs
	kStwAbs
	kStbAbs
	kSthAbs
	kLmwAbs
	kStmwAbs

	// X-form memory: EA = RA + RB.
	kLwzx
	kLbzx
	kLhzx
	kStwx
	kStbx
	kSthx

	kAdd
	kSubf
	kNeg
	kMullw
	kDivw
	kAnd
	kOr
	kMr // RA = RT: or rA,rS,rS without Rc
	kXor
	kNor
	kSlw
	kSrw
	kSraw
	kSrawi // RA = RT >>a SH
	kExtsb
	kExtsh
	kRlwinm // RA = rotl(RT, SH) & Imm

	// SPR moves, in the order Resolve steps through: LR form, CTR form,
	// and the fault form for any other SPR (in Imm).
	kMflr
	kMfctr
	kMfsprBad
	kMtlr
	kMtctr
	kMtsprBad

	kB      // branch to Imm
	kBc     // branch to Imm if BO/BI hold
	kBclr   // branch to LR if BO/BI hold
	kBcctr  // branch to CTR if BO/BI hold
	kBAbs   // b or bc with AA: faults
	kBadLnk // link branch whose successor has no address: faults

	kSc

	numKinds
)

// Resolved is one instruction as the execute stage sees it. Register
// fields keep ppc.Inst's names (RT doubles as RS); Rc and LK keep their
// meaning. Imm is the one 32-bit operand: the extended (and for
// addis/oris, shifted) immediate, the rlwinm mask, a branch's PC-space
// target, or the SPR number of an unsupported mfspr/mtspr. The layout is
// 16 bytes, so a PredecodedSlot stays 32.
type Resolved struct {
	Kind       kind
	RT, RA, RB uint8
	SH, CRF    uint8
	BO, BI     uint8
	Rc, LK     bool
	Imm        uint32
}

// Resolve is the machine's one resolver: PredecodeText, the compressed
// image's table builder and Step all call it. target is where the
// frontend sends i's relative displacement — RelTarget(cia, i.Imm>>2) at
// the instruction's fetch address — and matters only for a relative b or
// bc. linkOK is false when the instruction's successor has no address (it
// is not the last instruction of a dictionary entry): a link branch there
// resolves to a fault.
func Resolve(i ppc.Inst, target uint32, linkOK bool) Resolved {
	// Resolved has too many fields to live in registers: decide in locals
	// and build it once.
	d := &opDescs[i.Op]
	k, ra, rb, imm := d.kind, i.RA, i.RB, uint32(i.Imm)<<d.shift
	if ra == 0 && d.zeroRA != kIllegal {
		k = d.zeroRA
		if d.fix == fixIndexed {
			// (0|0) + rB is a D-form access off rB with no displacement.
			ra, rb, imm = i.RB, 0, 0
		}
	}
	if d.fix >= fixOr {
		if d.fix == fixBranch {
			if i.AA {
				k = kBAbs
			} else {
				imm = target
			}
		} else if d.fix == fixOr {
			if i.RB == i.RT && !i.Rc {
				k = kMr
			}
		} else if d.fix == fixMask {
			imm = maskMBME(i.MB, i.ME)
		} else if d.fix == fixSPR {
			// The SPR steps the LR form on to the CTR or the fault form.
			imm = uint32(i.SPR)
			if i.SPR == ppc.SprCTR {
				k++
			} else if i.SPR != ppc.SprLR {
				k += 2
			}
		}
		if i.LK && !linkOK && k >= kB && k <= kBcctr {
			k = kBadLnk
		}
	}
	return Resolved{Kind: k, RT: i.RT, RA: ra, RB: rb, SH: i.SH, CRF: i.CRF, BO: i.BO, BI: i.BI,
		Rc: i.Rc, LK: i.LK, Imm: imm}
}

// Transfer is the control transfer r performs when it branches: a call
// for a branch that sets LR, a return for bclr without it, a jump for any
// other branch, and BranchNone for an instruction that cannot branch (the
// faulting branch kinds included) — what TraceStep reports as the Branch
// of a taken r.
func (r *Resolved) Transfer() BranchKind {
	switch r.Kind {
	case kB, kBc, kBcctr:
		return linkKind(r.LK)
	case kBclr:
		if r.LK {
			return BranchCall
		}
		return BranchReturn
	}
	return BranchNone
}

// opDesc is how one decoded operation resolves: its kind, the kind of
// its rA = 0 form (kIllegal when rA is a plain register), the shift of
// its immediate, and what else it needs.
type opDesc struct {
	kind, zeroRA kind
	shift        uint8
	fix          uint8
}

// Fixes, in opDesc.fix: fixes from fixOr on may also need the link
// check, which only branches can fail.
const (
	fixNone    = iota
	fixIndexed // X-form access: rA = 0 moves rB into the base
	fixOr      // or rA,rS,rS without Rc is mr
	fixMask    // rlwinm: the mask replaces the immediate
	fixSPR     // mfspr/mtspr: the SPR picks the kind
	fixBranch  // b/bc: a relative one's target replaces the displacement
	fixLink    // bclr/bcctr: only the link check
)

// opDescs describes every decoded operation, indexed by ppc.Op; ops
// absent here (OpInvalid) resolve to kIllegal.
var opDescs = [256]opDesc{
	ppc.OpAddi: {kind: kAddi, zeroRA: kLi}, ppc.OpAddis: {kind: kAddi, zeroRA: kLi, shift: 16},
	ppc.OpOri: {kind: kOri}, ppc.OpOris: {kind: kOri, shift: 16},
	ppc.OpAndiRc: {kind: kAndiRc}, ppc.OpXori: {kind: kXori},
	ppc.OpCmpwi: {kind: kCmpwi}, ppc.OpCmplwi: {kind: kCmplwi}, ppc.OpCmpw: {kind: kCmpw}, ppc.OpCmplw: {kind: kCmplw},
	ppc.OpLwz: {kind: kLwz, zeroRA: kLwzAbs}, ppc.OpLbz: {kind: kLbz, zeroRA: kLbzAbs},
	ppc.OpLhz: {kind: kLhz, zeroRA: kLhzAbs}, ppc.OpStw: {kind: kStw, zeroRA: kStwAbs},
	ppc.OpStb: {kind: kStb, zeroRA: kStbAbs}, ppc.OpSth: {kind: kSth, zeroRA: kSthAbs},
	ppc.OpStwu: {kind: kStwu},
	ppc.OpLmw:  {kind: kLmw, zeroRA: kLmwAbs}, ppc.OpStmw: {kind: kStmw, zeroRA: kStmwAbs},
	ppc.OpLwzx: {kind: kLwzx, zeroRA: kLwz, fix: fixIndexed}, ppc.OpLbzx: {kind: kLbzx, zeroRA: kLbz, fix: fixIndexed},
	ppc.OpLhzx: {kind: kLhzx, zeroRA: kLhz, fix: fixIndexed}, ppc.OpStwx: {kind: kStwx, zeroRA: kStw, fix: fixIndexed},
	ppc.OpStbx: {kind: kStbx, zeroRA: kStb, fix: fixIndexed}, ppc.OpSthx: {kind: kSthx, zeroRA: kSth, fix: fixIndexed},
	ppc.OpAdd: {kind: kAdd}, ppc.OpSubf: {kind: kSubf}, ppc.OpNeg: {kind: kNeg},
	ppc.OpMullw: {kind: kMullw}, ppc.OpDivw: {kind: kDivw},
	ppc.OpAnd: {kind: kAnd}, ppc.OpOr: {kind: kOr, fix: fixOr}, ppc.OpXor: {kind: kXor}, ppc.OpNor: {kind: kNor},
	ppc.OpSlw: {kind: kSlw}, ppc.OpSrw: {kind: kSrw}, ppc.OpSraw: {kind: kSraw}, ppc.OpSrawi: {kind: kSrawi},
	ppc.OpExtsb: {kind: kExtsb}, ppc.OpExtsh: {kind: kExtsh}, ppc.OpRlwinm: {kind: kRlwinm, fix: fixMask},
	ppc.OpMfspr: {kind: kMflr, fix: fixSPR}, ppc.OpMtspr: {kind: kMtlr, fix: fixSPR},
	ppc.OpB: {kind: kB, fix: fixBranch}, ppc.OpBc: {kind: kBc, fix: fixBranch},
	ppc.OpBclr: {kind: kBclr, fix: fixLink}, ppc.OpBcctr: {kind: kBcctr, fix: fixLink},
	ppc.OpSc: {kind: kSc},
}

// A Memo is a direct-mapped cache of resolutions, keyed by instruction
// word and link addressability — everything Resolve depends on, except
// that a relative b or bc also depends on its address, so those (and
// illegal words) are never kept. Table builders resolve text full of
// repeated words and Step re-executes the same words around every loop:
// both resolve through one and skip decode and resolution on a hit.
// Since a cell's content holds for any text, table builders share memos
// through a pool (GetMemo, Release) instead of allocating one per table.
type Memo struct {
	cells [memoSize]memoEntry
}

var memos = sync.Pool{New: func() any { return new(Memo) }}

// GetMemo takes a memo from the pool table builders share.
func GetMemo() *Memo { return memos.Get().(*Memo) }

// Release returns m to the pool; the caller must not use it afterwards.
func (m *Memo) Release() { memos.Put(m) }

const (
	memoBits = 12
	memoSize = 1 << memoBits
)

// memoEntry is one memo cell: the resolution of the word and linkOK that
// key packs (with a valid bit).
type memoEntry struct {
	key uint64
	r   Resolved
}

func (m *Memo) cell(word uint32, linkOK bool) (*memoEntry, uint64) {
	key := uint64(word)<<2 | 2
	if linkOK {
		key |= 1
	}
	return &m.cells[(word*0x9E3779B1)>>(32-memoBits)], key
}

// Lookup returns the cached resolution of word, if the memo holds one.
func (m *Memo) Lookup(word uint32, linkOK bool) (Resolved, bool) {
	e, key := m.cell(word, linkOK)
	return e.r, e.key == key
}

// Resolve is Resolve(i, target, linkOK) for i decoded from word, kept for
// the next Lookup of word unless it is a relative branch or illegal.
func (m *Memo) Resolve(word uint32, i ppc.Inst, target uint32, linkOK bool) Resolved {
	r := Resolve(i, target, linkOK)
	if r.Kind != kIllegal && r.Kind != kB && r.Kind != kBc && r.Kind != kBadLnk {
		e, key := m.cell(word, linkOK)
		*e = memoEntry{key: key, r: r}
	}
	return r
}

// maskMBME builds the rlwinm mask covering IBM bits MB..ME inclusive,
// wrapping when MB > ME.
func maskMBME(mb, me uint8) uint32 {
	m1 := ^uint32(0) >> mb
	var m2 uint32
	if me < 31 {
		m2 = ^uint32(0) >> (me + 1)
	}
	if mb <= me {
		return m1 &^ m2
	}
	return m1 | ^m2
}
