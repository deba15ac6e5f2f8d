package machine

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ppc"
	"repro/internal/program"
)

// refState is an independent model of the integer ALU, deliberately
// written against the architecture manual rather than the interpreter so
// the two implementations can cross-check each other.
type refState struct {
	gpr [32]uint32
}

func (r *refState) exec(w uint32) bool {
	i := ppc.Decode(w)
	g := &r.gpr
	ra0 := func() uint32 {
		if i.RA == 0 {
			return 0
		}
		return g[i.RA]
	}
	switch i.Op {
	case ppc.OpAddi:
		g[i.RT] = ra0() + uint32(i.Imm)
	case ppc.OpAddis:
		g[i.RT] = ra0() + uint32(i.Imm)<<16
	case ppc.OpOri:
		g[i.RA] = g[i.RT] | uint32(uint16(i.Imm))
	case ppc.OpOris:
		g[i.RA] = g[i.RT] | uint32(uint16(i.Imm))<<16
	case ppc.OpXori:
		g[i.RA] = g[i.RT] ^ uint32(uint16(i.Imm))
	case ppc.OpAndiRc:
		g[i.RA] = g[i.RT] & uint32(uint16(i.Imm))
	case ppc.OpAdd:
		g[i.RT] = g[i.RA] + g[i.RB]
	case ppc.OpSubf:
		g[i.RT] = g[i.RB] - g[i.RA]
	case ppc.OpNeg:
		g[i.RT] = ^g[i.RA] + 1
	case ppc.OpMullw:
		g[i.RT] = uint32(int64(int32(g[i.RA])) * int64(int32(g[i.RB])))
	case ppc.OpDivw:
		a, b := int32(g[i.RA]), int32(g[i.RB])
		if b == 0 || (a == -1<<31 && b == -1) {
			g[i.RT] = 0
		} else {
			g[i.RT] = uint32(a / b)
		}
	case ppc.OpAnd:
		g[i.RA] = g[i.RT] & g[i.RB]
	case ppc.OpOr:
		g[i.RA] = g[i.RT] | g[i.RB]
	case ppc.OpXor:
		g[i.RA] = g[i.RT] ^ g[i.RB]
	case ppc.OpNor:
		g[i.RA] = ^(g[i.RT] | g[i.RB])
	case ppc.OpSlw:
		n := g[i.RB] & 63
		if n > 31 {
			g[i.RA] = 0
		} else {
			g[i.RA] = g[i.RT] << n
		}
	case ppc.OpSrw:
		n := g[i.RB] & 63
		if n > 31 {
			g[i.RA] = 0
		} else {
			g[i.RA] = g[i.RT] >> n
		}
	case ppc.OpSraw:
		n := g[i.RB] & 63
		if n > 31 {
			n = 31
		}
		g[i.RA] = uint32(int32(g[i.RT]) >> n)
	case ppc.OpSrawi:
		g[i.RA] = uint32(int32(g[i.RT]) >> i.SH)
	case ppc.OpExtsb:
		v := g[i.RT] & 0xFF
		if v&0x80 != 0 {
			v |= 0xFFFFFF00
		}
		g[i.RA] = v
	case ppc.OpExtsh:
		v := g[i.RT] & 0xFFFF
		if v&0x8000 != 0 {
			v |= 0xFFFF0000
		}
		g[i.RA] = v
	case ppc.OpRlwinm:
		// Independent formulation: explicit rotate, mask enumerated bit
		// by bit in IBM numbering.
		r := g[i.RT]
		if i.SH != 0 {
			r = g[i.RT]<<i.SH | g[i.RT]>>(32-uint32(i.SH))
		}
		var mask uint32
		b := uint32(i.MB)
		for {
			mask |= 1 << (31 - b)
			if b == uint32(i.ME) {
				break
			}
			b = (b + 1) % 32
		}
		g[i.RA] = r & mask
	default:
		return false
	}
	return true
}

// aluOps generates one random ALU instruction over low registers. The
// (rA|0) source of addi/addis draws r0 a quarter of the time (the caller
// loads r0 nonzero, so reading it as zero is observable), and mr, which
// the resolver gives a kind of its own, is drawn explicitly.
func aluOp(rng *rand.Rand) uint32 {
	r := func() uint8 { return uint8(3 + rng.Intn(8)) }
	ra0 := func() uint8 {
		if rng.Intn(4) == 0 {
			return 0
		}
		return r()
	}
	imm := func() int32 { return int32(rng.Intn(1 << 16)) }
	simm := func() int32 { return int32(rng.Intn(1<<16)) - 1<<15 }
	switch rng.Intn(23) {
	case 0:
		return ppc.Addi(r(), ra0(), simm())
	case 1:
		return ppc.Addis(r(), ra0(), simm())
	case 2:
		return ppc.Ori(r(), r(), imm())
	case 3:
		return ppc.Oris(r(), r(), imm())
	case 4:
		return ppc.Xori(r(), r(), imm())
	case 5:
		return ppc.AndiRc(r(), r(), imm())
	case 6:
		return ppc.Add(r(), r(), r())
	case 7:
		return ppc.Subf(r(), r(), r())
	case 8:
		return ppc.Neg(r(), r())
	case 9:
		return ppc.Mullw(r(), r(), r())
	case 10:
		return ppc.Divw(r(), r(), r())
	case 11:
		return ppc.And(r(), r(), r())
	case 12:
		return ppc.Or(r(), r(), r())
	case 13:
		return ppc.Xor(r(), r(), r())
	case 14:
		return ppc.Nor(r(), r(), r())
	case 15:
		return ppc.Slw(r(), r(), r())
	case 16:
		return ppc.Srw(r(), r(), r())
	case 17:
		return ppc.Sraw(r(), r(), r())
	case 18:
		return ppc.Srawi(r(), r(), uint8(rng.Intn(32)))
	case 19:
		return ppc.Extsb(r(), r())
	case 20:
		return ppc.Extsh(r(), r())
	case 21:
		return ppc.Mr(r(), r())
	default:
		return ppc.Rlwinm(r(), r(), uint8(rng.Intn(32)), uint8(rng.Intn(32)), uint8(rng.Intn(32)))
	}
}

// TestALUDifferential cross-checks the interpreter against the reference
// model on random straight-line programs with random initial registers, on
// both the fused loop and the Step path.
func TestALUDifferential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))

		// Random program.
		n := 5 + rng.Intn(40)
		words := make([]uint32, 0, n)
		for i := 0; i < n; i++ {
			words = append(words, aluOp(rng))
		}

		// Build the machine: random r3..r10 and a nonzero r0, then the
		// program.
		b := program.NewBuilder("diff")
		f := b.Func("main")
		var init [32]uint32
		for _, r := range []int{0, 3, 4, 5, 6, 7, 8, 9, 10} {
			v := rng.Uint32() | 1
			init[r] = v
			f.Emit(ppc.Lis(uint8(r), int32(int16(uint16(v>>16)))))
			f.Emit(ppc.Ori(uint8(r), uint8(r), int32(v&0xFFFF)))
		}
		for _, w := range words {
			f.Emit(w)
		}
		f.Emit(ppc.Li(0, SysExit))
		f.Emit(ppc.Sc())
		p, err := b.Link()
		if err != nil {
			t.Log(err)
			return false
		}

		// Run the reference.
		ref := &refState{gpr: init}
		for _, w := range words {
			if !ref.exec(w) {
				t.Logf("reference cannot execute %s", ppc.Disassemble(w))
				return false
			}
		}

		for _, stepped := range []bool{false, true} {
			cpu, err := NewForProgram(p)
			if err != nil {
				t.Log(err)
				return false
			}
			if stepped {
				cpu.TraceStep = func(StepInfo) {}
			}
			if _, err := cpu.Run(10000); err != nil {
				t.Log(err)
				return false
			}
			if fused := cpu.Fast.Steps == cpu.Stats.Steps; fused == stepped {
				t.Logf("stepped=%v: fast path ran %d of %d steps", stepped, cpu.Fast.Steps, cpu.Stats.Steps)
				return false
			}
			// r0 is clobbered by the exit syscall setup (li r0); compare
			// r3..r10.
			for r := 3; r <= 10; r++ {
				if cpu.GPR[r] != ref.gpr[r] {
					for _, w := range words {
						t.Logf("  %s", ppc.Disassemble(w))
					}
					t.Logf("stepped=%v: r%d: machine %08x, reference %08x", stepped, r, cpu.GPR[r], ref.gpr[r])
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
