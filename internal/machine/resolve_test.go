package machine

import (
	"testing"
	"unsafe"

	"repro/internal/ppc"
)

// TestResolve pins what the resolver decides once so the execute stage
// never decides it again: the rA = 0 forms, mr, immediate extension and
// shifts, rlwinm masks, SPR moves, branch targets and link addressability.
func TestResolve(t *testing.T) {
	const target = 0x1234
	orRc := ppc.Encode(ppc.Inst{Op: ppc.OpOr, RT: 4, RA: 3, RB: 4, Rc: true})
	bla := ppc.Encode(ppc.Inst{Op: ppc.OpB, Imm: 0x40, AA: true, LK: true})
	bcla := ppc.Encode(ppc.Inst{Op: ppc.OpBc, BO: ppc.BoAlways, Imm: 0x40, AA: true})
	bclrl := ppc.Encode(ppc.Inst{Op: ppc.OpBclr, BO: ppc.BoAlways, LK: true})
	for _, tc := range []struct {
		name   string
		word   uint32
		linkOK bool
		want   Resolved
	}{
		// (rA|0) immediates: li/lis are kinds of their own; addis and
		// oris come shifted, signed immediates sign-extended and logical
		// ones zero-extended.
		{"li", ppc.Li(3, -1), true, Resolved{Kind: kLi, RT: 3, Imm: 0xFFFFFFFF}},
		{"lis", ppc.Lis(3, -2), true, Resolved{Kind: kLi, RT: 3, Imm: 0xFFFE0000}},
		{"addi", ppc.Addi(3, 4, -2), true, Resolved{Kind: kAddi, RT: 3, RA: 4, Imm: 0xFFFFFFFE}},
		{"addis", ppc.Addis(3, 4, 1), true, Resolved{Kind: kAddi, RT: 3, RA: 4, Imm: 0x10000}},
		{"ori", ppc.Ori(3, 4, 0xFFFF), true, Resolved{Kind: kOri, RT: 4, RA: 3, Imm: 0xFFFF}},
		{"oris", ppc.Oris(3, 4, 0x8001), true, Resolved{Kind: kOri, RT: 4, RA: 3, Imm: 0x80010000}},
		{"ori r0", ppc.Ori(0, 0, 7), true, Resolved{Kind: kOri, Imm: 7}}, // no (rA|0) form
		{"xori", ppc.Xori(3, 4, 0x8000), true, Resolved{Kind: kXori, RT: 4, RA: 3, Imm: 0x8000}},
		{"andi.", ppc.AndiRc(3, 4, 0xFFFF), true, Resolved{Kind: kAndiRc, RT: 4, RA: 3, Rc: true, Imm: 0xFFFF}},
		{"cmpwi", ppc.Cmpwi(2, 5, -3), true, Resolved{Kind: kCmpwi, RA: 5, CRF: 2, Imm: 0xFFFFFFFD}},
		{"cmplwi", ppc.Cmplwi(2, 5, 0xFFFD), true, Resolved{Kind: kCmplwi, RA: 5, CRF: 2, Imm: 0xFFFD}},

		// D-form memory: rA = 0 makes the effective address absolute.
		{"lwz", ppc.Lwz(3, -4, 5), true, Resolved{Kind: kLwz, RT: 3, RA: 5, Imm: 0xFFFFFFFC}},
		{"lwz abs", ppc.Lwz(3, 8, 0), true, Resolved{Kind: kLwzAbs, RT: 3, Imm: 8}},
		{"lbz abs", ppc.Lbz(3, 8, 0), true, Resolved{Kind: kLbzAbs, RT: 3, Imm: 8}},
		{"lhz abs", ppc.Lhz(3, 8, 0), true, Resolved{Kind: kLhzAbs, RT: 3, Imm: 8}},
		{"stw abs", ppc.Stw(3, -8, 0), true, Resolved{Kind: kStwAbs, RT: 3, Imm: 0xFFFFFFF8}},
		{"stb abs", ppc.Stb(3, 8, 0), true, Resolved{Kind: kStbAbs, RT: 3, Imm: 8}},
		{"sth abs", ppc.Sth(3, 8, 0), true, Resolved{Kind: kSthAbs, RT: 3, Imm: 8}},
		{"lmw abs", ppc.Lmw(29, 16, 0), true, Resolved{Kind: kLmwAbs, RT: 29, Imm: 16}},
		{"stmw abs", ppc.Stmw(29, 16, 0), true, Resolved{Kind: kStmwAbs, RT: 29, Imm: 16}},
		{"stmw", ppc.Stmw(29, -12, 1), true, Resolved{Kind: kStmw, RT: 29, RA: 1, Imm: 0xFFFFFFF4}},
		{"stwu r0", ppc.Stwu(3, -16, 0), true, Resolved{Kind: kStwu, RT: 3, Imm: 0xFFFFFFF0}},

		// X-form memory: rA = 0 is a D-form access off rB.
		{"lwzx", ppc.Lwzx(3, 4, 5), true, Resolved{Kind: kLwzx, RT: 3, RA: 4, RB: 5}},
		{"lwzx r0", ppc.Lwzx(3, 0, 5), true, Resolved{Kind: kLwz, RT: 3, RA: 5}},
		{"lwzx r0,r0", ppc.Lwzx(3, 0, 0), true, Resolved{Kind: kLwz, RT: 3}},
		{"lbzx r0", ppc.Lbzx(3, 0, 5), true, Resolved{Kind: kLbz, RT: 3, RA: 5}},
		{"lhzx r0", ppc.Lhzx(3, 0, 5), true, Resolved{Kind: kLhz, RT: 3, RA: 5}},
		{"stwx r0", ppc.Stwx(3, 0, 5), true, Resolved{Kind: kStw, RT: 3, RA: 5}},
		{"stbx r0", ppc.Stbx(3, 0, 5), true, Resolved{Kind: kStb, RT: 3, RA: 5}},
		{"sthx r0", ppc.Sthx(3, 0, 5), true, Resolved{Kind: kSth, RT: 3, RA: 5}},

		// mr is or rA,rS,rS without Rc only.
		{"mr", ppc.Mr(3, 4), true, Resolved{Kind: kMr, RT: 4, RA: 3, RB: 4}},
		{"or.", orRc, true, Resolved{Kind: kOr, RT: 4, RA: 3, RB: 4, Rc: true}},
		{"or", ppc.Or(3, 4, 5), true, Resolved{Kind: kOr, RT: 4, RA: 3, RB: 5}},

		// rlwinm carries its mask, wrapping when MB > ME.
		{"rlwinm", ppc.Rlwinm(3, 4, 8, 24, 31), true, Resolved{Kind: kRlwinm, RT: 4, RA: 3, SH: 8, Imm: 0xFF}},
		{"rlwinm all", ppc.Rlwinm(3, 4, 0, 0, 31), true, Resolved{Kind: kRlwinm, RT: 4, RA: 3, Imm: 0xFFFFFFFF}},
		{"rlwinm wrap", ppc.Rlwinm(3, 4, 1, 30, 1), true, Resolved{Kind: kRlwinm, RT: 4, RA: 3, SH: 1, Imm: 0xC0000003}},

		{"mflr", ppc.Mflr(3), true, Resolved{Kind: kMflr, RT: 3, Imm: ppc.SprLR}},
		{"mfctr", ppc.Mfctr(3), true, Resolved{Kind: kMfctr, RT: 3, Imm: ppc.SprCTR}},
		{"mtlr", ppc.Mtlr(3), true, Resolved{Kind: kMtlr, RT: 3, Imm: ppc.SprLR}},
		{"mtctr", ppc.Mtctr(3), true, Resolved{Kind: kMtctr, RT: 3, Imm: ppc.SprCTR}},
		{"mfspr 1", ppc.Encode(ppc.Inst{Op: ppc.OpMfspr, RT: 3, SPR: 1}), true, Resolved{Kind: kMfsprBad, RT: 3, Imm: 1}},
		{"mtspr 272", ppc.Encode(ppc.Inst{Op: ppc.OpMtspr, RT: 3, SPR: 272}), true, Resolved{Kind: kMtsprBad, RT: 3, Imm: 272}},

		// Relative branches carry their target; AA branches and link
		// branches with no addressable successor resolve to faults.
		{"b", ppc.B(0x40), true, Resolved{Kind: kB, Imm: target}},
		{"bl", ppc.Bl(0x40), true, Resolved{Kind: kB, LK: true, Imm: target}},
		{"bl mid-entry", ppc.Bl(0x40), false, Resolved{Kind: kBadLnk, LK: true, Imm: target}},
		{"b mid-entry", ppc.B(0x40), false, Resolved{Kind: kB, Imm: target}},
		{"bdnz", ppc.Bdnz(-8), true, Resolved{Kind: kBc, BO: ppc.BoDnz, Imm: target}},
		{"bla", bla, true, Resolved{Kind: kBAbs, LK: true, Imm: 0x40}},
		{"bca", bcla, true, Resolved{Kind: kBAbs, BO: ppc.BoAlways, Imm: 0x40}},
		{"blr mid-entry", ppc.Blr(), false, Resolved{Kind: kBclr, BO: ppc.BoAlways}},
		{"bclrl mid-entry", bclrl, false, Resolved{Kind: kBadLnk, BO: ppc.BoAlways, LK: true}},
		{"bctrl", ppc.Bctrl(), true, Resolved{Kind: kBcctr, BO: ppc.BoAlways, LK: true}},

		{"sc", ppc.Sc(), true, Resolved{Kind: kSc}},
		{"illegal", 0, true, Resolved{Kind: kIllegal}},
	} {
		got := Resolve(ppc.Decode(tc.word), target, tc.linkOK)
		if got.Kind != tc.want.Kind || got.Imm != tc.want.Imm || got.Rc != tc.want.Rc || got.LK != tc.want.LK {
			t.Errorf("%s (%08x): resolved %+v, want %+v", tc.name, tc.word, got, tc.want)
			continue
		}
		if got.RT != tc.want.RT || got.RA != tc.want.RA || got.RB != tc.want.RB {
			t.Errorf("%s (%08x): registers %d/%d/%d, want %d/%d/%d", tc.name, tc.word,
				got.RT, got.RA, got.RB, tc.want.RT, tc.want.RA, tc.want.RB)
		}
		if got.CRF != tc.want.CRF || got.SH != tc.want.SH || got.BO != tc.want.BO || got.BI != tc.want.BI {
			t.Errorf("%s (%08x): fields %+v, want %+v", tc.name, tc.word, got, tc.want)
		}
	}
}

// TestSlotLayout pins the predecode cell sizes the fused loop's cache
// behavior rests on: two slots per 64-byte line, a resolved instruction in
// half a slot.
func TestSlotLayout(t *testing.T) {
	if n := unsafe.Sizeof(PredecodedSlot{}); n != 32 {
		t.Errorf("PredecodedSlot is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(Resolved{}); n != 16 {
		t.Errorf("Resolved is %d bytes, want 16", n)
	}
}
