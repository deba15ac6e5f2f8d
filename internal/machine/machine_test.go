package machine

import (
	"testing"

	"repro/internal/ppc"
	"repro/internal/program"
)

// run links and executes a module, returning the CPU after exit.
func run(t *testing.T, b *program.Builder, maxSteps int64) *CPU {
	t.Helper()
	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatalf("NewForProgram: %v", err)
	}
	if _, err := cpu.Run(maxSteps); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return cpu
}

// emitExit appends the exit syscall with the status in r3.
func emitExit(f *program.FuncBuilder) {
	f.Emit(ppc.Li(0, SysExit))
	f.Emit(ppc.Sc())
}

func TestArithmeticLoop(t *testing.T) {
	// Sum 1..10 with a bdnz loop, print, exit with the sum.
	b := program.NewBuilder("sum")
	f := b.Func("main")
	f.Emit(ppc.Li(3, 0))  // acc
	f.Emit(ppc.Li(4, 10)) // i
	f.Emit(ppc.Li(5, 10)) // count
	f.Emit(ppc.Mtctr(5))
	f.Label("loop")
	f.Emit(ppc.Add(3, 3, 4))
	f.Emit(ppc.Addi(4, 4, -1))
	f.Branch(ppc.Bdnz(0), "loop")
	f.Emit(ppc.Li(0, SysPutint))
	f.Emit(ppc.Sc())
	emitExit(f)

	cpu := run(t, b, 1000)
	exited, status := cpu.Exited()
	if !exited || status != 55 {
		t.Fatalf("exit %v status %d, want 55", exited, status)
	}
	if string(cpu.Output()) != "55" {
		t.Fatalf("output %q", cpu.Output())
	}
}

func TestRecursionAndStack(t *testing.T) {
	// Recursive factorial(6) = 720 exercising prologue/epilogue templates,
	// call/return, and stack discipline.
	b := program.NewBuilder("fact")

	main := b.Func("main")
	main.Emit(ppc.Li(3, 6))
	main.Call("fact")
	emitExit(main)

	f := b.Func("fact")
	f.BeginPrologue()
	f.Emit(ppc.Mflr(0))
	f.Emit(ppc.Stw(0, 8, 1))
	f.Emit(ppc.Stwu(1, -32, 1))
	f.Emit(ppc.Stmw(31, 28, 1))
	f.EndPrologue()
	f.Emit(ppc.Mr(31, 3))
	f.Emit(ppc.Cmpwi(0, 3, 1))
	f.Branch(ppc.Bgt(0, 0), "recurse")
	f.Emit(ppc.Li(3, 1))
	f.Branch(ppc.B(0), "out")
	f.Label("recurse")
	f.Emit(ppc.Addi(3, 3, -1))
	f.Call("fact")
	f.Emit(ppc.Mullw(3, 3, 31))
	f.Label("out")
	f.BeginEpilogue()
	f.Emit(ppc.Lmw(31, 28, 1))
	f.Emit(ppc.Addi(1, 1, 32))
	f.Emit(ppc.Lwz(0, 8, 1))
	f.Emit(ppc.Mtlr(0))
	f.Emit(ppc.Blr())
	f.EndEpilogue()

	cpu := run(t, b, 10000)
	if _, status := cpu.Exited(); status != 720 {
		t.Fatalf("fact(6) = %d, want 720", status)
	}
}

func TestJumpTableDispatch(t *testing.T) {
	// switch(i) for i = 0..2, accumulating distinct constants, exercising
	// the computed-goto sequence and data-section tables.
	b := program.NewBuilder("switch")
	f := b.Func("main")
	f.Emit(ppc.Li(31, 0)) // acc
	f.Emit(ppc.Li(30, 0)) // i
	f.Label("loop")
	f.Emit(ppc.Mr(3, 30))
	f.JumpTable(3, 11, 12, []string{"c0", "c1", "c2"})
	f.Label("c0")
	f.Emit(ppc.Addi(31, 31, 1))
	f.Branch(ppc.B(0), "next")
	f.Label("c1")
	f.Emit(ppc.Addi(31, 31, 20))
	f.Branch(ppc.B(0), "next")
	f.Label("c2")
	f.Emit(ppc.Addi(31, 31, 300))
	f.Label("next")
	f.Emit(ppc.Addi(30, 30, 1))
	f.Emit(ppc.Cmpwi(0, 30, 3))
	f.Branch(ppc.Blt(0, 0), "loop")
	f.Emit(ppc.Mr(3, 31))
	emitExit(f)

	cpu := run(t, b, 1000)
	if _, status := cpu.Exited(); status != 321 {
		t.Fatalf("switch acc = %d, want 321", status)
	}
}

func TestMemoryOps(t *testing.T) {
	// Store and reload bytes/halves/words, sign extension, shifts, masks.
	b := program.NewBuilder("mem")
	base := b.ReserveData(64, 4)
	f := b.Func("main")
	addr := uint32(program.DefaultDataBase + base)
	f.Emit(ppc.Lis(9, int32(int16(addr>>16))))
	f.Emit(ppc.Ori(9, 9, int32(addr&0xFFFF)))
	f.Emit(ppc.Li(3, -2)) // 0xFFFFFFFE
	f.Emit(ppc.Stw(3, 0, 9))
	f.Emit(ppc.Lbz(4, 3, 9))  // lowest byte of BE word: 0xFE
	f.Emit(ppc.Lhz(5, 2, 9))  // 0xFFFE
	f.Emit(ppc.Lwz(6, 0, 9))  // 0xFFFFFFFE
	f.Emit(ppc.Stb(4, 8, 9))  // write 0xFE
	f.Emit(ppc.Sth(5, 10, 9)) // write 0xFFFE
	f.Emit(ppc.Lwz(7, 8, 9))  // 0xFE00FFFE
	f.Emit(ppc.Extsb(10, 4))  // 0xFFFFFFFE
	f.Emit(ppc.Extsh(11, 5))  // 0xFFFFFFFE
	f.Emit(ppc.Srwi(12, 7, 24))
	f.Emit(ppc.Mr(3, 12))
	emitExit(f)

	cpu := run(t, b, 1000)
	if _, status := cpu.Exited(); status != 0xFE {
		t.Fatalf("r12 = %#x, want 0xFE", status)
	}
	if cpu.GPR[4] != 0xFE || cpu.GPR[5] != 0xFFFE || cpu.GPR[6] != 0xFFFFFFFE {
		t.Fatalf("loads: r4=%#x r5=%#x r6=%#x", cpu.GPR[4], cpu.GPR[5], cpu.GPR[6])
	}
	if cpu.GPR[7] != 0xFE00FFFE {
		t.Fatalf("r7 = %#x", cpu.GPR[7])
	}
	if cpu.GPR[10] != 0xFFFFFFFE || cpu.GPR[11] != 0xFFFFFFFE {
		t.Fatalf("extends: r10=%#x r11=%#x", cpu.GPR[10], cpu.GPR[11])
	}
}

func TestStringOutput(t *testing.T) {
	b := program.NewBuilder("hello")
	off := b.AppendData([]byte("hello, ppc\x00"))
	f := b.Func("main")
	addr := uint32(program.DefaultDataBase + off)
	f.Emit(ppc.Lis(3, int32(int16(addr>>16))))
	f.Emit(ppc.Ori(3, 3, int32(addr&0xFFFF)))
	f.Emit(ppc.Li(0, SysPuts))
	f.Emit(ppc.Sc())
	emitExit(f)

	cpu := run(t, b, 100)
	if got := string(cpu.Output()); got != "hello, ppc" {
		t.Fatalf("output %q", got)
	}
}

func TestDivisionEdgeCases(t *testing.T) {
	b := program.NewBuilder("div")
	f := b.Func("main")
	f.Emit(ppc.Li(3, 100))
	f.Emit(ppc.Li(4, 7))
	f.Emit(ppc.Divw(5, 3, 4)) // 14
	f.Emit(ppc.Li(6, 0))
	f.Emit(ppc.Divw(7, 3, 6)) // div by zero -> 0
	f.Emit(ppc.Lis(8, -0x8000))
	f.Emit(ppc.Li(9, -1))
	f.Emit(ppc.Divw(10, 8, 9)) // overflow -> 0
	f.Emit(ppc.Mr(3, 5))
	emitExit(f)

	cpu := run(t, b, 100)
	if _, status := cpu.Exited(); status != 14 {
		t.Fatalf("100/7 = %d", status)
	}
	if cpu.GPR[7] != 0 || cpu.GPR[10] != 0 {
		t.Fatalf("edge cases: r7=%d r10=%d", cpu.GPR[7], cpu.GPR[10])
	}
}

func TestCRFieldsIndependent(t *testing.T) {
	b := program.NewBuilder("cr")
	f := b.Func("main")
	f.Emit(ppc.Li(3, 5))
	f.Emit(ppc.Cmpwi(0, 3, 9)) // cr0: LT
	f.Emit(ppc.Cmpwi(1, 3, 1)) // cr1: GT
	f.Emit(ppc.Cmpwi(7, 3, 5)) // cr7: EQ
	f.Emit(ppc.Li(3, 0))
	f.Branch(ppc.Bge(0, 0), "fail")
	f.Branch(ppc.Ble(1, 0), "fail")
	f.Branch(ppc.Bne(7, 0), "fail")
	f.Emit(ppc.Li(3, 1))
	f.Label("fail")
	emitExit(f)

	cpu := run(t, b, 100)
	if _, status := cpu.Exited(); status != 1 {
		t.Fatal("CR fields interfered")
	}
}

func TestUnsignedCompare(t *testing.T) {
	b := program.NewBuilder("ucmp")
	f := b.Func("main")
	f.Emit(ppc.Li(3, -1)) // 0xFFFFFFFF
	f.Emit(ppc.Cmplwi(0, 3, 1))
	f.Emit(ppc.Li(3, 0))
	f.Branch(ppc.Ble(0, 0), "out") // unsigned max is not <= 1
	f.Emit(ppc.Li(3, 1))
	f.Label("out")
	emitExit(f)

	cpu := run(t, b, 100)
	if _, status := cpu.Exited(); status != 1 {
		t.Fatal("unsigned compare treated as signed")
	}
}

func TestRlwinmSemantics(t *testing.T) {
	cases := []struct {
		sh, mb, me uint8
		in, want   uint32
	}{
		{0, 24, 31, 0xDEADBEEF, 0xEF},       // clrlwi 24
		{8, 0, 23, 0xDEADBEEF, 0xADBEEF00},  // slwi 8
		{24, 8, 31, 0xDEADBEEF, 0x00DEADBE}, // srwi 8
		{16, 0, 31, 0x12345678, 0x56781234}, // rotate 16
		{0, 28, 3, 0xFFFFFFFF, 0xF000000F},  // wrapped mask
	}
	for _, tc := range cases {
		b := program.NewBuilder("rlw")
		f := b.Func("main")
		f.Emit(ppc.Lis(4, int32(int16(tc.in>>16))))
		f.Emit(ppc.Ori(4, 4, int32(tc.in&0xFFFF)))
		f.Emit(ppc.Rlwinm(5, 4, tc.sh, tc.mb, tc.me))
		emitExit(f)
		cpu := run(t, b, 100)
		if cpu.GPR[5] != tc.want {
			t.Errorf("rlwinm sh=%d mb=%d me=%d on %#x = %#x, want %#x",
				tc.sh, tc.mb, tc.me, tc.in, cpu.GPR[5], tc.want)
		}
	}
}

func TestMaskMBME(t *testing.T) {
	cases := []struct {
		mb, me uint8
		want   uint32
	}{
		{0, 31, 0xFFFFFFFF},
		{24, 31, 0x000000FF},
		{0, 7, 0xFF000000},
		{8, 15, 0x00FF0000},
		{31, 31, 0x00000001},
		{0, 0, 0x80000000},
		{28, 3, 0xF000000F}, // wrap
	}
	for _, tc := range cases {
		if got := maskMBME(tc.mb, tc.me); got != tc.want {
			t.Errorf("maskMBME(%d,%d) = %#x, want %#x", tc.mb, tc.me, got, tc.want)
		}
	}
}

func TestStepBudget(t *testing.T) {
	b := program.NewBuilder("spin")
	f := b.Func("main")
	f.Label("loop")
	f.Branch(ppc.B(0), "loop")
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(100); err == nil {
		t.Fatal("infinite loop not caught by budget")
	}
}

func TestMemoryFault(t *testing.T) {
	b := program.NewBuilder("fault")
	f := b.Func("main")
	f.Emit(ppc.Li(9, 16)) // address 16: unmapped
	f.Emit(ppc.Lwz(3, 0, 9))
	emitExit(f)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(100); err == nil {
		t.Fatal("wild load not faulted")
	}
}

func TestJumpOutsideTextFaults(t *testing.T) {
	b := program.NewBuilder("wild")
	f := b.Func("main")
	f.Emit(ppc.Li(9, 0x100))
	f.Emit(ppc.Mtctr(9))
	f.Emit(ppc.Bctr())
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(100); err == nil {
		t.Fatal("wild jump not faulted")
	}
}

func TestStatsAndTrace(t *testing.T) {
	b := program.NewBuilder("stats")
	f := b.Func("main")
	f.Emit(ppc.Li(3, 0))
	f.Emit(ppc.Li(4, 3))
	f.Emit(ppc.Mtctr(4))
	f.Label("loop")
	f.Emit(ppc.Addi(3, 3, 1))
	f.Branch(ppc.Bdnz(0), "loop")
	emitExit(f)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	var traced int
	cpu.TraceFetch = func(addr uint32, n int) {
		traced++
		if n != 4 {
			t.Errorf("normal fetch of %d bytes", n)
		}
		if addr < p.TextBase {
			t.Errorf("fetch below text base: %#x", addr)
		}
	}
	if _, err := cpu.Run(1000); err != nil {
		t.Fatal(err)
	}
	if cpu.Stats.Steps == 0 || int64(traced) != cpu.Stats.MemFetches {
		t.Fatalf("stats: steps=%d traced=%d memfetches=%d", cpu.Stats.Steps, traced, cpu.Stats.MemFetches)
	}
	if cpu.Stats.TakenBranches != 2 { // bdnz taken twice
		t.Fatalf("taken branches = %d, want 2", cpu.Stats.TakenBranches)
	}
	if cpu.Stats.FetchedBytes != 4*cpu.Stats.MemFetches {
		t.Fatal("fetched bytes inconsistent")
	}
}

// TestTraceStepSequence pins the CIA/Word sequence TraceStep delivers on
// straight-line code: one delivery per step, in fetch order, each carrying
// the executed instruction's address and encoding.
func TestTraceStepSequence(t *testing.T) {
	b := program.NewBuilder("trace")
	f := b.Func("main")
	f.Emit(ppc.Li(3, 1))
	f.Emit(ppc.Addi(3, 3, 1))
	emitExit(f)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	var words, addrs []uint32
	cpu.TraceStep = func(si StepInfo) {
		addrs = append(addrs, si.CIA)
		words = append(words, si.Word)
	}
	if _, err := cpu.Run(100); err != nil {
		t.Fatal(err)
	}
	if int64(len(words)) != cpu.Stats.Steps {
		t.Fatalf("traced %d of %d steps", len(words), cpu.Stats.Steps)
	}
	for i, w := range words {
		if want := p.Text[p.Entry+i]; w != want {
			t.Errorf("step %d: word %08x, want %08x", i, w, want)
		}
		if want := p.EntryAddr() + uint32(4*i); addrs[i] != want {
			t.Errorf("step %d: CIA %#x, want %#x", i, addrs[i], want)
		}
	}
	if words[0] != ppc.Li(3, 1) || words[1] != ppc.Addi(3, 3, 1) {
		t.Fatalf("first trace entries %08x %08x", words[0], words[1])
	}
}

// runExpectError builds a single-function program and requires Run to
// fail.
func runExpectError(t *testing.T, name string, emit func(f *program.FuncBuilder)) {
	t.Helper()
	b := program.NewBuilder(name)
	f := b.Func("main")
	emit(f)
	p, err := b.Link()
	if err != nil {
		t.Fatalf("%s: link: %v", name, err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(1000); err == nil {
		t.Errorf("%s: expected an execution error", name)
	}
}

func TestExecutionFaults(t *testing.T) {
	runExpectError(t, "illegal", func(f *program.FuncBuilder) {
		f.Emit(0x00000000) // reserved opcode
	})
	runExpectError(t, "unknown-syscall", func(f *program.FuncBuilder) {
		f.Emit(ppc.Li(0, 99))
		f.Emit(ppc.Sc())
	})
	runExpectError(t, "unsupported-spr", func(f *program.FuncBuilder) {
		f.Emit(ppc.Encode(ppc.Inst{Op: ppc.OpMfspr, RT: 3, SPR: 1}))
	})
	runExpectError(t, "unsupported-mtspr", func(f *program.FuncBuilder) {
		f.Emit(ppc.Encode(ppc.Inst{Op: ppc.OpMtspr, RT: 3, SPR: 272}))
	})
	runExpectError(t, "absolute-branch", func(f *program.FuncBuilder) {
		f.Emit(ppc.Encode(ppc.Inst{Op: ppc.OpB, Imm: 0x100, AA: true}))
	})
	runExpectError(t, "store-fault", func(f *program.FuncBuilder) {
		f.Emit(ppc.Li(9, 64))
		f.Emit(ppc.Stw(3, 0, 9))
	})
	runExpectError(t, "blr-wild", func(f *program.FuncBuilder) {
		f.Emit(ppc.Li(9, 12))
		f.Emit(ppc.Mtlr(9))
		f.Emit(ppc.Blr())
	})
}

func TestIndexedMemoryOps(t *testing.T) {
	b := program.NewBuilder("idx")
	base := b.ReserveData(32, 4)
	f := b.Func("main")
	addr := uint32(program.DefaultDataBase + base)
	f.Emit(ppc.Lis(9, int32(int16(addr>>16))))
	f.Emit(ppc.Ori(9, 9, int32(addr&0xFFFF)))
	f.Emit(ppc.Li(10, 4)) // index
	f.Emit(ppc.Li(3, -2))
	f.Emit(ppc.Stbx(3, 9, 10)) // byte 0xFE at +4
	f.Emit(ppc.Li(11, 8))
	f.Emit(ppc.Sthx(3, 9, 11)) // half 0xFFFE at +8
	f.Emit(ppc.Lbzx(4, 9, 10)) // 0xFE
	f.Emit(ppc.Lhzx(5, 9, 11)) // 0xFFFE
	f.Emit(ppc.Add(3, 4, 5))   // 0xFE + 0xFFFE = 0x100FC
	emitExit(f)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	status, err := cpu.Run(100)
	if err != nil {
		t.Fatal(err)
	}
	if status != 0x100FC {
		t.Fatalf("indexed ops: %#x, want 0x100FC", status)
	}
}

func TestMemoryRegions(t *testing.T) {
	m := NewMemory()
	if err := m.Map("a", 0x1000, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if err := m.Map("b", 0x1008, make([]byte, 16)); err == nil {
		t.Fatal("overlap not detected")
	}
	if err := m.Map("c", 0x2000, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if err := m.Store32(0x1000, 0xCAFEBABE); err != nil {
		t.Fatal(err)
	}
	v, err := m.Load32(0x1000)
	if err != nil || v != 0xCAFEBABE {
		t.Fatalf("load32: %v %#x", err, v)
	}
	hi, err := m.Load16(0x1000)
	if err != nil || hi != 0xCAFE {
		t.Fatalf("big-endian halfword: %#x", hi)
	}
	if _, err := m.Load32(0x100E); err == nil {
		t.Fatal("straddling load not faulted")
	}
	if _, err := m.Load8(0x3000); err == nil {
		t.Fatal("unmapped load not faulted")
	}
}

func TestCStringReads(t *testing.T) {
	m := NewMemory()
	if err := m.Map("d", 0x100, []byte("abc\x00def")); err != nil {
		t.Fatal(err)
	}
	s, err := m.CString(0x100, 16)
	if err != nil || s != "abc" {
		t.Fatalf("CString = %q, %v", s, err)
	}
	if _, err := m.CString(0x104, 3); err == nil {
		t.Fatal("unterminated string not detected")
	}
}

func TestTraceStepBranchClassification(t *testing.T) {
	// main calls leaf twice and exits; TraceStep must fire once per step
	// (conservation: deliveries == Stats.Steps) and classify the taken
	// transfers: bl = call, blr = return, b = jump.
	b := program.NewBuilder("branches")
	main := b.Func("main")
	main.Emit(ppc.Li(3, 0))
	main.Call("leaf")
	main.Branch(ppc.B(0), "tail")
	main.Label("tail")
	main.Call("leaf")
	emitExit(main)
	leaf := b.Func("leaf")
	leaf.Emit(ppc.Addi(3, 3, 1))
	leaf.Emit(ppc.Blr())

	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatalf("NewForProgram: %v", err)
	}
	var steps int64
	counts := map[BranchKind]int{}
	cpu.TraceStep = func(si StepInfo) {
		steps++
		counts[si.Branch]++
		if si.Branch != BranchNone && si.Target == 0 {
			t.Errorf("step at %#x: taken %v with zero target", si.CIA, si.Branch)
		}
	}
	if _, err := cpu.Run(1000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if steps != cpu.Stats.Steps {
		t.Fatalf("TraceStep fired %d times, Stats.Steps %d", steps, cpu.Stats.Steps)
	}
	want := map[BranchKind]int{BranchCall: 2, BranchReturn: 2, BranchJump: 1}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("branch kind %v seen %d times, want %d", k, counts[k], n)
		}
	}
	if counts[BranchCall]+counts[BranchReturn]+counts[BranchJump] != int(cpu.Stats.TakenBranches) {
		t.Errorf("classified %d transfers, TakenBranches %d", counts[BranchCall]+counts[BranchReturn]+counts[BranchJump], cpu.Stats.TakenBranches)
	}
}

func TestTraceStepCountedBranchAndCtr(t *testing.T) {
	// bdnz is a taken jump while the counter runs, a non-branch on exit;
	// the jump-table dispatch ends in bctr, also a jump (no link).
	b := program.NewBuilder("ctr")
	main := b.Func("main")
	main.Emit(ppc.Li(3, 3))
	main.Emit(ppc.Mtctr(3))
	main.Label("loop")
	main.Branch(ppc.Bdnz(0), "loop")
	main.Emit(ppc.Li(3, 0))
	main.JumpTable(3, 11, 12, []string{"done"})
	main.Label("done")
	emitExit(main)

	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatalf("NewForProgram: %v", err)
	}
	counts := map[BranchKind]int{}
	cpu.TraceStep = func(si StepInfo) { counts[si.Branch]++ }
	if _, err := cpu.Run(1000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// bdnz takes twice (ctr 3→2→1, falls through on the third execution);
	// the table dispatch's bctr takes once. None of them link.
	if counts[BranchJump] != 3 {
		t.Errorf("jumps %d, want 3 (2 bdnz + 1 bctr)", counts[BranchJump])
	}
	if counts[BranchCall] != 0 || counts[BranchReturn] != 0 {
		t.Errorf("calls %d returns %d, want 0 each", counts[BranchCall], counts[BranchReturn])
	}
}
