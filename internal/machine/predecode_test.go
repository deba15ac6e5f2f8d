package machine

import (
	"bytes"
	"testing"

	"repro/internal/ppc"
	"repro/internal/program"
)

func TestResetReuse(t *testing.T) {
	// A program that reads, increments, and writes back a data-section
	// counter, then prints it: only if Reset restores memory, registers,
	// output, and stats does every rerun behave exactly like the first.
	b := program.NewBuilder("reset")
	base := b.ReserveData(16, 4)
	f := b.Func("main")
	addr := uint32(program.DefaultDataBase + base)
	f.Emit(ppc.Lis(9, int32(int16(addr>>16))))
	f.Emit(ppc.Ori(9, 9, int32(addr&0xFFFF)))
	f.Emit(ppc.Lwz(3, 0, 9)) // 0 on a pristine run
	f.Emit(ppc.Addi(3, 3, 1))
	f.Emit(ppc.Stw(3, 0, 9)) // left at 1; Reset must restore 0
	f.Emit(ppc.Li(0, SysPutint))
	f.Emit(ppc.Sc())
	emitExit(f)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	st1, err := cpu.Run(1000)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != 1 {
		t.Fatalf("first run exited %d, want 1", st1)
	}
	out1 := append([]byte(nil), cpu.Output()...)
	stats1 := cpu.Stats
	for i := 0; i < 3; i++ {
		if err := cpu.Reset(); err != nil {
			t.Fatalf("Reset %d: %v", i, err)
		}
		st, err := cpu.Run(1000)
		if err != nil {
			t.Fatalf("rerun %d: %v", i, err)
		}
		if st != st1 {
			t.Fatalf("rerun %d exited %d, want %d (memory not restored)", i, st, st1)
		}
		if !bytes.Equal(cpu.Output(), out1) {
			t.Fatalf("rerun %d output %q, want %q", i, cpu.Output(), out1)
		}
		if cpu.Stats != stats1 {
			t.Fatalf("rerun %d stats %+v, want %+v", i, cpu.Stats, stats1)
		}
	}
}

func TestResetWithoutSnapshot(t *testing.T) {
	mem := NewMemory()
	if err := mem.Map("text", 0x1000, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	cpu := New(mem, NewNormalFrontend(mem, 0x1000, 4))
	if err := cpu.Reset(); err == nil {
		t.Fatal("Reset without a prior SnapshotReset accepted")
	}
}

// parityProgram is a small loop with calls, both branch polarities, and
// output — enough control flow to make a fast/slow divergence visible.
func parityProgram(t *testing.T) *program.Program {
	t.Helper()
	b := program.NewBuilder("parity")
	main := b.Func("main")
	main.Emit(ppc.Li(3, 0))
	main.Emit(ppc.Li(4, 20))
	main.Emit(ppc.Mtctr(4))
	main.Label("loop")
	main.Call("step")
	main.Branch(ppc.Bdnz(0), "loop")
	main.Emit(ppc.Li(0, SysPutint))
	main.Emit(ppc.Sc())
	emitExit(main)
	step := b.Func("step")
	step.Emit(ppc.Addi(3, 3, 3))
	step.Emit(ppc.Blr())
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFastSlowParity(t *testing.T) {
	// The same program on two identical machines, one bare (eligible for
	// the fused fast loop) and one with a hook (forced onto the
	// instrumented Step path): outputs, status, and every counter must
	// agree, and the hook must fire once per step, proving the slow path
	// actually ran.
	p := parityProgram(t)
	fast, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	var hooked int64
	slow.TraceStep = func(StepInfo) { hooked++ }
	fs, ferr := fast.Run(10000)
	ss, serr := slow.Run(10000)
	if ferr != nil || serr != nil {
		t.Fatalf("run errors: fast %v, slow %v", ferr, serr)
	}
	if fs != ss {
		t.Fatalf("status: fast %d, slow %d", fs, ss)
	}
	if !bytes.Equal(fast.Output(), slow.Output()) {
		t.Fatalf("output: fast %q, slow %q", fast.Output(), slow.Output())
	}
	if fast.Stats != slow.Stats {
		t.Fatalf("stats: fast %+v, slow %+v", fast.Stats, slow.Stats)
	}
	if hooked != slow.Stats.Steps || hooked == 0 {
		t.Fatalf("TraceStep fired %d times for %d steps", hooked, slow.Stats.Steps)
	}
}

func TestFastSlowErrorParity(t *testing.T) {
	// Faults and budget exhaustion must read identically from both paths:
	// the fast loop bails to the slow path instead of growing its own
	// error strings.
	cases := []struct {
		name string
		emit func(f *program.FuncBuilder)
	}{
		{"illegal", func(f *program.FuncBuilder) {
			f.Emit(ppc.Li(3, 1))
			f.Emit(0x00000000)
		}},
		{"budget", func(f *program.FuncBuilder) {
			f.Label("spin")
			f.Branch(ppc.B(0), "spin")
		}},
		{"run-off-end", func(f *program.FuncBuilder) {
			f.Emit(ppc.Li(3, 1)) // no exit: sequential flow leaves text
		}},
	}
	for _, tc := range cases {
		b := program.NewBuilder(tc.name)
		tc.emit(b.Func("main"))
		p, err := b.Link()
		if err != nil {
			t.Fatalf("%s: link: %v", tc.name, err)
		}
		fast, err := NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		slow.TraceStep = func(StepInfo) {}
		_, ferr := fast.Run(100)
		_, serr := slow.Run(100)
		if ferr == nil || serr == nil {
			t.Fatalf("%s: expected errors, got fast %v, slow %v", tc.name, ferr, serr)
		}
		if ferr.Error() != serr.Error() {
			t.Fatalf("%s: fast error %q, slow error %q", tc.name, ferr, serr)
		}
	}
}

func TestPredecodeTextFaultSlots(t *testing.T) {
	mem := NewMemory()
	words := []uint32{ppc.Li(3, 1), 0x00000000, ppc.Li(3, 2)}
	if err := mem.Map("text", 0x1000, WordsToBytes(words)); err != nil {
		t.Fatal(err)
	}
	pd := PredecodeText(mem, 0x1000, 0x1000+uint32(4*len(words)))
	if len(pd.Slots) != len(words) {
		t.Fatalf("%d slots for %d words", len(pd.Slots), len(words))
	}
	s := pd.Slots[0]
	if s.Fault || s.Next != 0x1004 || s.Succ != 1 || s.Rank != -1 || s.EntryLen != 1 || s.MemBytes != 4 {
		t.Fatalf("slot 0: %+v", s)
	}
	if s.Inst != Resolve(ppc.Decode(words[0]), 0, true) || s.Word != words[0] {
		t.Fatalf("slot 0 resolves %+v", s.Inst)
	}
	if !pd.Slots[1].Fault {
		t.Fatal("illegal word not marked Fault")
	}
	if pd.Slots[2].Fault {
		t.Fatal("valid word after illegal one marked Fault")
	}
}

func TestPredecodeRebuildAfterStore(t *testing.T) {
	mem := NewMemory()
	if err := mem.Map("text", 0x1000, WordsToBytes([]uint32{ppc.Li(3, 1)})); err != nil {
		t.Fatal(err)
	}
	fe := NewNormalFrontend(mem, 0x1000, 1)
	pd := fe.Predecode()
	if pd == nil || pd.Slots[0].Inst.Imm != 1 || pd.Slots[0].Inst.Kind != kLi {
		t.Fatalf("initial table: %+v", pd)
	}
	if fe.Predecode() != pd {
		t.Fatal("unchanged text rebuilt the table")
	}
	if err := mem.Store32(0x1000, ppc.Li(3, 2)); err != nil {
		t.Fatal(err)
	}
	pd2 := fe.Predecode()
	if pd2 == pd {
		t.Fatal("table not rebuilt after a store into text")
	}
	if pd2.Slots[0].Inst.Imm != 2 {
		t.Fatalf("rebuilt table decodes Imm %d, want 2", pd2.Slots[0].Inst.Imm)
	}
}

func TestFastPathSelfModifyingText(t *testing.T) {
	// The guest overwrites an instruction it has not executed yet. The
	// fused loop runs from a table built before the store; the per-step
	// store-generation check must notice and fall back to the slow path,
	// which fetches the patched word from memory.
	b := program.NewBuilder("selfmod")
	f := b.Func("main")
	const patchIdx = 5
	patchAddr := uint32(program.DefaultTextBase + 4*patchIdx)
	newWord := ppc.Li(3, 42)
	f.Emit(ppc.Lis(9, int32(int16(patchAddr>>16))))
	f.Emit(ppc.Ori(9, 9, int32(patchAddr&0xFFFF)))
	f.Emit(ppc.Lis(10, int32(int16(newWord>>16))))
	f.Emit(ppc.Ori(10, 10, int32(newWord&0xFFFF)))
	f.Emit(ppc.Stw(10, 0, 9))
	f.Emit(ppc.Li(3, 1)) // patchIdx: patched to li r3,42 before it executes
	emitExit(f)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if p.EntryAddr() != program.DefaultTextBase {
		t.Fatalf("entry %#x, patch offsets assume %#x", p.EntryAddr(), uint32(program.DefaultTextBase))
	}
	for _, hook := range []bool{false, true} {
		cpu, err := NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		if hook {
			cpu.TraceStep = func(StepInfo) {}
		}
		status, err := cpu.Run(100)
		if err != nil {
			t.Fatalf("hook=%v: %v", hook, err)
		}
		if status != 42 {
			t.Fatalf("hook=%v: exited %d, want 42 (stale predecode table executed)", hook, status)
		}
	}
}
