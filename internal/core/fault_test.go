package core

import (
	"errors"
	"testing"

	"repro/internal/codeword"
	"repro/internal/machine"
	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/stats"
)

// TestFaultsAreTyped runs one hostile program per fault kind on the fused
// loop and on the Step path: each run must stop with a *machine.Fault of
// that kind, attributed to the faulting instruction, counted once as
// machine.faults.<kind> by the machine's recorder, and both paths must
// report the same fault with the same text.
func TestFaultsAreTyped(t *testing.T) {
	native := func(emit ...uint32) func(t *testing.T) *machine.CPU {
		return func(t *testing.T) *machine.CPU {
			b := program.NewBuilder("hostile")
			f := b.Func("main")
			for _, w := range emit {
				f.Emit(w)
			}
			f.Emit(ppc.Li(0, 0))
			f.Emit(ppc.Sc())
			p, err := b.Link()
			if err != nil {
				t.Fatal(err)
			}
			cpu, err := machine.NewForProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			return cpu
		}
	}
	// compressed builds a nibble image of compress and lets mutate damage
	// its dictionary before the image's table is built.
	compressed := func(mutate func(img *Image)) func(t *testing.T) *machine.CPU {
		return func(t *testing.T) *machine.CPU {
			img, _ := compress(t, "compress", codeword.Nibble)
			mutate(img)
			cpu, err := NewMachine(img)
			if err != nil {
				t.Fatal(err)
			}
			return cpu
		}
	}
	for _, tc := range []struct {
		kind  machine.FaultKind
		build func(t *testing.T) *machine.CPU
	}{
		{machine.FaultIllegalInstruction, native(ppc.Li(3, 1), 0x00000001)},
		{machine.FaultBadAddress, native(ppc.Li(9, 16), ppc.Lwz(3, 0, 9))},
		{machine.FaultJumpOutsideText, native(ppc.Li(9, 0x100), ppc.Mtctr(9), ppc.Bctr())},
		{machine.FaultAbsoluteBranch, native(ppc.Encode(ppc.Inst{Op: ppc.OpB, Imm: 0x100, AA: true}))},
		{machine.FaultUnaddressableLink, compressed(func(img *Image) {
			// A call at the head of every multi-instruction entry has no
			// addressable return point.
			for i := range img.Entries {
				if len(img.Entries[i].Words) > 1 {
					img.Entries[i].Words = append([]uint32{ppc.Bctrl()}, img.Entries[i].Words[1:]...)
				}
			}
		})},
		{machine.FaultUnsupportedSPR, native(ppc.Encode(ppc.Inst{Op: ppc.OpMtspr, RT: 3, SPR: 272}))},
		{machine.FaultUnknownSyscall, native(ppc.Li(0, 99), ppc.Sc())},
		{machine.FaultCodewordBeyondDictionary, compressed(func(img *Image) { img.Entries = img.Entries[:1] })},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			var texts [2]string
			for i, stepped := range []bool{false, true} {
				cpu := tc.build(t)
				rec := stats.New()
				cpu.Record = rec
				if stepped {
					cpu.TraceStep = func(machine.StepInfo) {}
				}
				_, err := cpu.Run(1_000_000)
				var f *machine.Fault
				if !errors.As(err, &f) {
					t.Fatalf("stepped=%v: error %v (%T) is not a *machine.Fault", stepped, err, err)
				}
				if f.Kind != tc.kind {
					t.Fatalf("stepped=%v: fault %q is %v, want %v", stepped, f, f.Kind, tc.kind)
				}
				// A codeword beyond the dictionary faults while fetching, so
				// there is no instruction word to report.
				if f.PC == 0 || (f.Word == 0) != (tc.kind == machine.FaultCodewordBeyondDictionary) {
					t.Errorf("stepped=%v: fault %q at PC %#x reports word %08x", stepped, f, f.PC, f.Word)
				}
				// The Run's recorder counts the fault under its kind, and
				// under no other.
				snap := rec.Snapshot()
				for k := machine.FaultKind(0); k.String() != "unknown"; k++ {
					want := int64(0)
					if k == tc.kind {
						want = 1
					}
					if got := snap.Counter("machine.faults." + k.String()); got != want {
						t.Errorf("stepped=%v: machine.faults.%s = %d, want %d", stepped, k, got, want)
					}
				}
				texts[i] = err.Error()
			}
			if texts[0] != texts[1] {
				t.Fatalf("fused loop faults %q, Step path %q", texts[0], texts[1])
			}
		})
	}
}
