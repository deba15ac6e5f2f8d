// Package machine executes PowerPC-subset programs. It provides the CPU
// state and interpreter, a sparse memory, and the fetch-frontend interface
// of the paper's Figure 3: the same execution core runs either from normal
// program memory or from a compressed instruction stream expanded through a
// dictionary in the decode stage.
package machine

import (
	"bytes"
	"fmt"

	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/stats"
)

// Syscall numbers (passed in r0; sc transfers to the host).
const (
	SysExit    = 0 // r3 = exit status
	SysPutchar = 1 // r3 = byte
	SysPutint  = 2 // r3 = signed integer, printed in decimal
	SysPuts    = 3 // r3 = address of NUL-terminated string
)

// Guest memory layout, mapped for every machine by MapDataAndStack.
const (
	stackTop  = 0x7FF0_0000
	stackSize = 1 << 20
	heapExtra = 1 << 16 // slack beyond the data image for generated code
)

// Stats accumulates execution counters.
type Stats struct {
	Steps         int64 // instructions executed
	TakenBranches int64
	Syscalls      int64
	MemFetches    int64 // fetches that touched program memory
	FetchedBytes  int64 // program-memory bytes fetched
	Expanded      int64 // instructions produced by dictionary expansion (compressed mode)
}

// CPU is the architectural state plus the fetch frontend.
type CPU struct {
	GPR [32]uint32
	LR  uint32
	CTR uint32
	CR  uint32 // bit 0 (MSB) = CR field 0 bit LT, IBM numbering

	Mem *Memory

	fe  Frontend
	out bytes.Buffer

	// TraceFetch, when non-nil, receives the program-memory traffic of
	// every fetch (for cache simulation): one (addr, nbytes) call per
	// access, in fetch order. Unlike TraceStep it does not force the
	// instrumented Step path. The fused fast loop journals its
	// table fetches and delivers them in batches — at most every few
	// thousand fetches and whenever the loop exits — so calls lag
	// execution, but the sequence is exactly the one Step delivers and is
	// complete when Run returns. The hook must therefore not read CPU
	// state (registers, Stats, memory): it sees only its arguments.
	TraceFetch func(addr uint32, nbytes int)

	// TraceSlots, when non-nil, receives every executed instruction as a
	// slot of a predecode table, in execution order: the fused loop's
	// table fetches in batches from the same journal as TraceFetch, and
	// each instruction Step executes as a one-slot batch of Step's own
	// table. Each index (masked by SlotTaken, which flags a taken branch to
	// its own fall-through) supplied its slot's EntryLen instructions,
	// except the batch's last, which supplied cut fewer when a taken
	// branch, an exit or a fault ended its expansion early; over a Run the
	// batches account for exactly the Stats.Steps it added. It is the
	// guest profiler's hook. Like TraceFetch it leaves Run fused and has
	// received everything when Run returns; pd and slots are reused after
	// the call.
	TraceSlots func(pd *Predecode, slots []uint32, cut int)

	// TraceStep, when non-nil, receives every executed instruction after
	// its architectural effects: the FetchInfo plus the control transfer
	// the instruction performed. It fires once per Step, even for the
	// instruction that exits the program, so the number of deliveries
	// equals Stats.Steps. It forces the instrumented Step path; ccrun
	// -trace and the reference tests use it.
	TraceStep func(StepInfo)

	// Record, when non-nil, is the CPU's counter sink, not a hook: every
	// Run adds its deltas of machine.steps, machine.expanded,
	// machine.fetched_bytes and the machine.fastpath.* counters (so
	// repeated Runs on one CPU accumulate correctly), plus
	// machine.faults.<kind> when it ends in a Fault. Attaching it leaves
	// Run on the fused fast loop.
	Record *stats.Recorder

	Stats Stats

	// Fast accumulates the fused fast loop's always-on telemetry: steps
	// it executed and every exit or refusal classified by BailReason.
	// Fast.Coverage(Stats.Steps) is the fast-path share of execution.
	Fast FastStats

	journal []uint32 // fetch journal backing store (beginJournal)

	step     Predecode         // Step's one-slot table over stepSlot
	stepSlot [1]PredecodedSlot // the instruction Step fetched, resolved
	stepIdx  [1]uint32         // Step's batch for TraceSlots (stepped)
	memo     *Memo             // Step's resolutions, allocated on the first Step
	segs     [2]segment        // runFast's cold state: fused, Step
	branch   takenBranch       // control transfer of the instruction being executed
	exited   bool
	status   int32

	snap *resetState // architectural state SnapshotReset captured, for Reset
}

// resetState is the architectural state Reset restores: registers plus the
// entry PC. Memory contents are snapshotted by Memory.Snapshot.
type resetState struct {
	gpr [32]uint32
	lr  uint32
	ctr uint32
	cr  uint32
	pc  uint32
}

// BranchKind classifies the control transfer an executed instruction
// performed, as observed by TraceStep. Classification follows the link
// semantics of the PowerPC branch family: any taken branch that sets LR is
// a call (bl, bcl, bctrl, blrl), a taken bclr that does not set LR is a
// return (blr and its conditional variants), and every other taken branch
// — including bctr, which jump tables and far-branch stubs use — is a
// plain jump.
type BranchKind uint8

// Control-transfer kinds.
const (
	BranchNone   BranchKind = iota // no transfer (or branch not taken)
	BranchJump                     // taken branch without link (b, bc, bctr)
	BranchCall                     // taken branch with LK set
	BranchReturn                   // taken bclr without LK
)

// takenBranch records the transfer the instruction in flight performed.
type takenBranch struct {
	Kind   BranchKind
	Target uint32
}

// StepInfo is what TraceStep observers receive: the executed instruction's
// fetch description plus the control transfer it performed. Target and
// Next are addresses in the PC space of the active frontend (byte
// addresses on the normal path, absolute unit addresses on the compressed
// path), so call/return matching works identically in both modes.
type StepInfo struct {
	FetchInfo
	Branch BranchKind
	Target uint32 // PC-space branch target when Branch != BranchNone
}

// New creates a CPU over the given memory and frontend.
func New(mem *Memory, fe Frontend) *CPU {
	c := &CPU{Mem: mem, fe: fe}
	c.stepSlot[0].EntryLen = 1
	c.step.Slots = c.stepSlot[:]
	return c
}

// NewForProgram maps a linked program into a fresh machine with the normal
// (uncompressed) fetch path, ready to Run.
func NewForProgram(p *program.Program) (*CPU, error) {
	mem := NewMemory()
	if err := mem.Map("text", p.TextBase, WordsToBytes(p.Text)); err != nil {
		return nil, err
	}
	sp, err := MapDataAndStack(mem, p.DataBase, p.Data)
	if err != nil {
		return nil, err
	}
	fe := NewNormalFrontend(mem, p.TextBase, len(p.Text))
	cpu := New(mem, fe)
	if err := fe.Reset(p.EntryAddr()); err != nil {
		return nil, err
	}
	cpu.GPR[1] = sp
	cpu.SnapshotReset()
	return cpu, nil
}

// MapDataAndStack maps the guest data layout every machine shares: a copy
// of the data image plus heap slack at dataBase, and the stack below
// stackTop. It returns the initial stack pointer, which leaves a red zone
// below the top.
func MapDataAndStack(mem *Memory, dataBase uint32, dataImage []byte) (sp uint32, err error) {
	data := make([]byte, len(dataImage)+heapExtra)
	copy(data, dataImage)
	if err := mem.Map("data", dataBase, data); err != nil {
		return 0, err
	}
	if err := mem.Map("stack", stackTop-stackSize, make([]byte, stackSize)); err != nil {
		return 0, err
	}
	return stackTop - 64, nil
}

// SnapshotReset captures the CPU's current architectural state — registers,
// PC, and every memory region's contents — as the state Reset restores.
// Constructors call it once setup is complete, so a freshly built machine
// can be Run repeatedly without re-mapping ~MBs of memory per run.
func (c *CPU) SnapshotReset() {
	c.Mem.Snapshot()
	c.snap = &resetState{gpr: c.GPR, lr: c.LR, ctr: c.CTR, cr: c.CR, pc: c.fe.PC()}
}

// Reset rewinds the machine to its SnapshotReset state: registers, memory,
// PC, accumulated output, exit state, Stats, and Fast all return to their
// post-construction values, reusing every allocation. Hooks (TraceFetch,
// TraceSlots, TraceStep) and Record are left attached.
func (c *CPU) Reset() error {
	if c.snap == nil {
		return fmt.Errorf("machine: Reset without a prior SnapshotReset")
	}
	if err := c.Mem.Reset(); err != nil {
		return err
	}
	c.GPR = c.snap.gpr
	c.LR = c.snap.lr
	c.CTR = c.snap.ctr
	c.CR = c.snap.cr
	c.out.Reset()
	c.Stats = Stats{}
	c.Fast = FastStats{}
	c.branch = takenBranch{}
	c.exited = false
	c.status = 0
	return c.fe.Reset(c.snap.pc)
}

// Output returns everything the program printed through syscalls.
func (c *CPU) Output() []byte { return c.out.Bytes() }

// Frontend returns the fetch frontend driving this CPU.
func (c *CPU) Frontend() Frontend { return c.fe }

// Exited reports whether the program performed SysExit, and its status.
func (c *CPU) Exited() (bool, int32) { return c.exited, c.status }

// Run executes until SysExit or the step budget is exhausted. It returns
// the exit status. Exceeding the budget or any architectural fault is an
// error; a fault is a *Fault.
//
// When TraceStep is nil and the frontend supplies a predecode table, Run
// drives the fused fetch+execute fast loop; attaching TraceStep
// transparently selects the instrumented Step path, so the per-step hook
// sees every instruction. TraceFetch and TraceSlots ride the fast loop
// through its fetch journal: TraceFetch receives the same (addr, nbytes)
// sequence as on the Step path, batched, TraceSlots every instruction
// either path executed, and both have received all of it when Run
// returns. Record is a sink, not a hook: one deferred export adds
// the Run's counter deltas to it on either path. Every Run classifies how
// the fast path ended — or why it never started — in Fast.Bails.
func (c *CPU) Run(maxSteps int64) (status int32, err error) {
	if c.Record != nil {
		before, fastBefore := c.Stats, c.Fast
		defer func() { c.exportRun(before, fastBefore, err) }()
	}
	if c.TraceStep == nil {
		if fe, ok := c.fe.(PredecodedFrontend); ok {
			if pd := fe.Predecode(); pd != nil {
				st, done, err := c.runFast(fe, pd, maxSteps)
				if done {
					return st, err
				}
				// The fast loop bailed with work left (fault slot,
				// off-table PC, stale table): the instrumented loop
				// finishes the run, so faults have one implementation.
				return c.runSlow(maxSteps)
			}
		}
		c.Fast.Bails[BailFrontendRefused]++
	} else {
		c.Fast.Bails[BailHookAttached]++
	}
	return c.runSlow(maxSteps)
}

// runSlow is the instrumented reference loop: one Step per instruction,
// every hook honored. The fused fast loop delegates here whenever
// anything unusual happens, so faults and edge cases have exactly one
// implementation.
func (c *CPU) runSlow(maxSteps int64) (int32, error) {
	for c.Stats.Steps < maxSteps {
		if err := c.Step(); err != nil {
			return 0, err
		}
		if c.exited {
			return c.status, nil
		}
	}
	return 0, errBudget(maxSteps)
}

// errBudget is the error of a Run that exhausted its step budget: a plain
// error, not a Fault, since the program did nothing wrong.
func errBudget(maxSteps int64) error {
	return fmt.Errorf("machine: step budget of %d exhausted", maxSteps)
}

// Step fetches and executes one instruction. It resolves the fetched word
// into the CPU's one-slot table and executes it through runFast, the same
// dispatch the fused loop uses, so the two paths share every semantic.
// A fetch makes at most one program-memory access (none exactly when it
// continues an on-chip dictionary expansion); Step accounts it in Stats
// and hands it to TraceFetch before executing. (The fused loop's fetch
// journal, drainFetches, replays the same sequence.)
func (c *CPU) Step() error {
	fi, err := c.fe.Fetch()
	if err != nil {
		return err
	}
	c.Stats.Steps++
	if fi.MemBytes > 0 {
		c.Stats.MemFetches++
		c.Stats.FetchedBytes += int64(fi.MemBytes)
		if c.TraceFetch != nil {
			c.TraceFetch(fi.MemAddr, fi.MemBytes)
		}
	} else {
		c.Stats.Expanded++
	}
	c.branch = takenBranch{}
	s := &c.stepSlot[0]
	if c.memo == nil {
		c.memo = new(Memo)
	}
	var ok bool
	if s.Inst, ok = c.memo.Lookup(fi.Word, fi.NextOK); !ok {
		i := ppc.Decode(fi.Word)
		s.Inst = c.memo.Resolve(fi.Word, i, c.fe.RelTarget(fi.CIA, i.Imm>>2), fi.NextOK)
	}
	s.Word, s.Next, c.step.Base = fi.Word, fi.Next, fi.CIA
	_, _, err = c.runFast(nil, &c.step, 0)
	if c.TraceSlots != nil {
		c.stepped(&fi)
	}
	if c.TraceStep != nil {
		c.TraceStep(StepInfo{FetchInfo: fi, Branch: c.branch.Kind, Target: c.branch.Target})
	}
	return err
}

// linkKind maps a branch's LK bit to its transfer kind for non-bclr
// branches: setting the link register makes the transfer a call.
func linkKind(lk bool) BranchKind {
	if lk {
		return BranchCall
	}
	return BranchJump
}

// branchCond evaluates the BO/BI fields, decrementing CTR when required.
func (c *CPU) branchCond(bo, bi uint8) bool {
	ctrOK := true
	if bo&4 == 0 {
		c.CTR--
		ctrZero := c.CTR == 0
		ctrOK = ctrZero == (bo&2 != 0)
	}
	condOK := true
	if bo&16 == 0 {
		bit := c.CR>>(31-uint(bi))&1 == 1
		condOK = bit == (bo&8 != 0)
	}
	return ctrOK && condOK
}

func (c *CPU) setCRField(crf uint8, lt, gt, eq bool) {
	shift := 28 - 4*uint(crf)
	var v uint32
	if lt {
		v |= 8
	}
	if gt {
		v |= 4
	}
	if eq {
		v |= 2
	}
	c.CR = c.CR&^(uint32(0xF)<<shift) | v<<shift
}

func (c *CPU) setCRSigned(crf uint8, a, b int32) {
	c.setCRField(crf, a < b, a > b, a == b)
}

func (c *CPU) setCRUnsigned(crf uint8, a, b uint32) {
	c.setCRField(crf, a < b, a > b, a == b)
}

func (c *CPU) setCR0(v uint32) { c.setCRSigned(0, int32(v), 0) }

// CRBit returns CR bit i (IBM numbering, bit 0 = MSB).
func (c *CPU) CRBit(i uint8) bool { return c.CR>>(31-uint(i))&1 == 1 }

// loadMultiple is lmw: registers rt..31 from consecutive words at ea.
func (c *CPU) loadMultiple(rt uint8, ea uint32) error {
	for r := int(rt); r <= 31; r++ {
		v, err := c.Mem.Load32(ea)
		if err != nil {
			return err
		}
		c.GPR[r] = v
		ea += 4
	}
	return nil
}

// storeMultiple is stmw: registers rt..31 to consecutive words at ea.
func (c *CPU) storeMultiple(rt uint8, ea uint32) error {
	for r := int(rt); r <= 31; r++ {
		if err := c.Mem.Store32(ea, c.GPR[r]); err != nil {
			return err
		}
		ea += 4
	}
	return nil
}

func (c *CPU) syscall() error {
	switch c.GPR[0] {
	case SysExit:
		c.exited = true
		c.status = int32(c.GPR[3])
	case SysPutchar:
		c.out.WriteByte(byte(c.GPR[3]))
	case SysPutint:
		fmt.Fprintf(&c.out, "%d", int32(c.GPR[3]))
	case SysPuts:
		s, err := c.Mem.CString(c.GPR[3], 1<<16)
		if err != nil {
			return err
		}
		c.out.WriteString(s)
	default:
		return Faultf(FaultUnknownSyscall, 0, c.GPR[0], "machine: unknown syscall %d", c.GPR[0])
	}
	return nil
}
