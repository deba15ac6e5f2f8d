// Fast-path telemetry: bail-reason accounting and the fetch journal for
// the fused fetch+execute loop. The loop itself (predecode.go) touches none
// of the observability machinery directly — it appends slot indices to the
// journal and calls the beginJournal/drainFetches/takenFetch/endFast
// helpers here, which run only at boundaries, exits and rare branches, so
// per-step cost stays at one integer comparison the loop already paid for
// the budget check (plus one nil test and a slot-index append while a
// journal is kept). `make lint-fastpath` enforces that split.
package machine

import "errors"

// BailReason classifies how a Run's fast-path attempt ended — or why it
// never started. Every Run increments exactly one Bails counter per
// fast-loop exit (plus one per refused or hook-forced entry), so the
// counters explain any coverage shortfall.
type BailReason uint8

// Fast-path exit and refusal reasons.
const (
	BailExit             BailReason = iota // program performed SysExit inside the loop
	BailBudget                             // step budget exhausted inside the loop
	BailFaultSlot                          // PC landed on a slot predecode marked undecodable
	BailOffTable                           // PC left the table or hit a misaligned interior offset
	BailSelfModifiedText                   // a store invalidated the table mid-run
	BailExecFault                          // an instruction faulted architecturally
	BailHookAttached                       // TraceStep forced the instrumented Step path for the whole Run
	BailFrontendRefused                    // frontend had no predecode table: a compressed one parked mid-expansion

	numBailReasons
)

var bailNames = [numBailReasons]string{
	"exit",
	"budget",
	"fault_slot",
	"off_table",
	"self_modified_text",
	"exec_fault",
	"hook_attached",
	"frontend_refused",
}

func (r BailReason) String() string {
	if int(r) < len(bailNames) {
		return bailNames[r]
	}
	return "unknown"
}

// FastStats accumulates the always-on fast-path telemetry across Runs
// (Reset clears it alongside Stats).
type FastStats struct {
	Steps int64                 // instructions executed by the fused loop
	Bails [numBailReasons]int64 // fast-path exits and refusals by reason
}

// Coverage is the share of all executed instructions the fused loop
// supplied: Steps over totalSteps (normally Stats.Steps of the same CPU).
func (f *FastStats) Coverage(totalSteps int64) float64 {
	if totalSteps <= 0 {
		return 0
	}
	return float64(f.Steps) / float64(totalSteps)
}

// BailSummary renders the non-zero bail counters as "reason=n" pairs in
// enum order — a deterministic one-line form for logs and CLI summaries.
func (f *FastStats) BailSummary() string {
	var b []byte
	for r, n := range f.Bails {
		if n == 0 {
			continue
		}
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, BailReason(r).String()...)
		b = append(b, '=')
		var digits [20]byte
		i := len(digits)
		for v := n; ; {
			i--
			digits[i] = byte('0' + v%10)
			if v /= 10; v == 0 {
				break
			}
		}
		b = append(b, digits[i:]...)
	}
	if len(b) == 0 {
		return "none"
	}
	return string(b)
}

// JournalLen is the fetch journal's capacity in table fetches: large
// enough that draining is a tight loop over a cache-resident buffer, small
// enough (16 KiB) to stay in L1/L2 next to the slot table.
const JournalLen = 4096

// beginJournal returns the emptied fetch journal for one fast-loop
// segment, nil when neither TraceFetch nor TraceSlots is attached. The
// buffer is allocated once per CPU and reused across segments, Runs and
// Resets; runFast appends one slot index per table fetch and bounds its
// step limit by the free room, so the journal never grows. It is handed
// out by pointer, so the loop carries one word for it rather than a slice
// header.
func (c *CPU) beginJournal() *[]uint32 {
	if c.TraceFetch == nil && c.TraceSlots == nil {
		return nil
	}
	if c.journal == nil {
		c.journal = make([]uint32, 0, JournalLen)
	}
	c.journal = c.journal[:0]
	return &c.journal
}

// SlotTaken flags a slot index TraceSlots receives: the fetch's last
// executed instruction was a taken branch to its own fall-through address
// (say, a conditional call of its successor), the one transfer the next
// delivered slot's address cannot reveal. Consumers mask it off before
// indexing pd.Slots.
const SlotTaken = 1 << 31

// drainFetches delivers the journaled table fetches and empties the
// journal. TraceFetch gets them in fetch order, one (byte address,
// MemBytes) call per entry — exactly the accesses Step reports for the
// same instructions (expansion continuations touch no program memory and
// are never journaled). TraceSlots gets the slot indices in one call, with
// cut, the instructions a taken branch, an exit or a fault left unexecuted
// of the last entry's expansion.
func (c *CPU) drainFetches(pd *Predecode, jl *[]uint32, cut int) {
	if len(*jl) == 0 {
		return
	}
	if c.TraceFetch != nil {
		for _, idx := range *jl {
			idx &^= SlotTaken
			c.TraceFetch(UnitByteAddr(pd.Base, idx<<pd.Shift, pd.UnitBits), int(pd.Slots[idx].MemBytes))
		}
	}
	if c.TraceSlots != nil {
		c.TraceSlots(pd, *jl, cut)
	}
	*jl = (*jl)[:0]
}

// takenFetch tells TraceSlots about a taken branch the next fetch's
// address would not show: one that left rem instructions of its
// expansion unexecuted closes the journal's batch at once, so the cut
// reaches the slot hook while the expansion is still the batch's last
// entry (journal drains happen only at fetch boundaries); one that
// targets its own fall-through flags its fetch with SlotTaken. Without
// the slot hook, the fetches stay journaled as they are.
func (c *CPU) takenFetch(pd *Predecode, jl *[]uint32, rem int) {
	if c.TraceSlots == nil {
		return
	}
	if rem == 0 {
		(*jl)[len(*jl)-1] |= SlotTaken
		return
	}
	c.drainFetches(pd, jl, rem)
}

// stepped delivers the instruction Step just executed, fetched as fi, to
// TraceSlots as a one-slot batch of Step's own table: the slot carries the
// fetch's program-memory bytes (0 exactly when it continues an on-chip
// expansion), the dictionary rank of an expansion it begins (else -1),
// and as Next the address the next sequential instruction is fetched
// from — the codeword's own while its expansion continues. With the
// fused loop's batches, the journal thus covers every step.
func (c *CPU) stepped(fi *FetchInfo) {
	s := &c.stepSlot[0]
	s.MemBytes, s.Rank = uint8(fi.MemBytes), -1
	if fi.EntryLen > 0 {
		s.Rank = int32(fi.EntryRank)
	}
	if !fi.NextOK {
		s.Next = fi.CIA
	}
	c.stepIdx[0] = 0
	if c.branch.Kind != BranchNone && c.branch.Target == s.Next {
		c.stepIdx[0] = SlotTaken
	}
	c.TraceSlots(&c.step, c.stepIdx[:], 0)
}

// endFast closes one fast-loop segment: delivers the fetches still in the
// journal (cut as for drainFetches), accumulates the segment's steps into
// Fast.Steps and records why the loop exited. Draining here, before the
// slow path resumes, keeps the journal's consumers in fetch order across a
// bail and complete when Run returns.
func (c *CPU) endFast(pd *Predecode, sg *segment, reason BailReason, cut int) {
	if sg.jl != nil {
		c.drainFetches(pd, sg.jl, cut)
	}
	c.Fast.Steps += c.Stats.Steps - sg.entrySteps
	c.Fast.Bails[reason]++
}

// bailCounterNames precomputes the exported counter name of every bail
// reason, so per-Run export does no string building.
var bailCounterNames = func() (a [numBailReasons]string) {
	for r := range a {
		a[r] = "machine.fastpath.bail." + BailReason(r).String()
	}
	return
}()

// exportRun adds one Run's counter deltas to Record: the execution
// counters plus the fast-path accounting, and machine.faults.<kind> when
// the Run ended in a Fault (err is the Run's error). Every bail counter is
// exported (including zeros) so snapshots always show the full reason
// vocabulary; slow_steps is the instrumented-path remainder, letting
// coverage be derived from any single recorder as
// steps/(steps+slow_steps).
func (c *CPU) exportRun(before Stats, fastBefore FastStats, err error) {
	rec := c.Record
	steps := c.Stats.Steps - before.Steps
	fast := c.Fast.Steps - fastBefore.Steps
	rec.Add("machine.steps", steps)
	rec.Add("machine.expanded", c.Stats.Expanded-before.Expanded)
	rec.Add("machine.fetched_bytes", c.Stats.FetchedBytes-before.FetchedBytes)
	rec.Add("machine.mem_fetches", c.Stats.MemFetches-before.MemFetches)
	rec.Add("machine.fastpath.steps", fast)
	rec.Add("machine.fastpath.slow_steps", steps-fast)
	for r := range c.Fast.Bails {
		rec.Add(bailCounterNames[r], c.Fast.Bails[r]-fastBefore.Bails[r])
	}
	if err != nil {
		// Declared here, f escapes through errors.As only on a failed Run.
		var f *Fault
		if errors.As(err, &f) {
			rec.Add(faultCounterNames[f.Kind], 1)
		}
	}
}
