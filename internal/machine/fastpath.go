// Fast-path telemetry: bail-reason accounting, epoch sampling and the
// fetch journal for the fused fetch+execute loop. The loop itself
// (predecode.go) touches none of the observability machinery directly — it
// calls the beginFast/beginJournal/drainFetches/drainEpoch/endFast helpers
// here, which run only at boundaries and exits, so per-step cost stays at
// one integer comparison the loop already paid for the budget check (plus
// one nil test and a slot-index append while a fetch hook is attached).
// `make lint-fastpath` enforces that split.
package machine

import "repro/internal/trace"

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
	BailFrontendRefused                    // frontend had no usable predecode table

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
	Steps  int64                 // instructions executed by the fused loop
	Epochs int64                 // telemetry epochs drained (0 unless sampling is enabled)
	Bails  [numBailReasons]int64 // fast-path exits and refusals by reason
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

// SlotTraffic is one predecode slot's per-epoch execution traffic. Slots
// are shared across CPUs (the table is cached per image/text), so traffic
// lives in a per-CPU parallel array, drained and cleared every epoch.
// Counters are int32 on purpose — an epoch is bounded by the step budget,
// far below overflow, and the half-sized entries keep the traffic array's
// cache footprint out of the fused loop's way. The loop counts only
// fetches, plus (negatively, in Steps) the instructions of an expansion a
// branch, an exit or a fault cut short; drainEpoch adds Fetches×EntryLen
// to Steps before an observer sees them.
type SlotTraffic struct {
	Fetches int32 // table fetches that landed on the slot
	Steps   int32 // instructions the slot supplied (fetch + expansion continuations)
}

// EpochObserver consumes drained slot traffic at epoch boundaries. The
// traffic slice parallels pd.Slots; touched lists the indices with
// non-zero traffic (each exactly once, unordered), so folding an epoch
// costs the slots it executed, not the size of the table. Both slices are
// cleared and reused after the call returns — observers must fold them
// into their own state, not retain them.
type EpochObserver interface {
	ObserveEpoch(pd *Predecode, traffic []SlotTraffic, touched []int32)
}

// DefaultEpochSteps is the epoch length when CPU.EpochSteps is zero: long
// enough that draining is noise even on programs that never revisit a
// slot, short enough that epoch spans stay fine-grained (an epoch is the
// telemetry staleness bound).
const DefaultEpochSteps = 1 << 20

// EnableEpochSampling attaches an epoch-grained traffic observer to the
// fast loop. Unlike TraceStep, sampling does NOT force the instrumented
// Step path: the fused loop runs unchanged and, every EpochSteps
// instructions, hands the per-slot traffic to obs and observes the epoch's
// length as machine.fastpath.epoch_len on Record (when attached). A nil
// obs detaches the observer.
//
// Epochs are step-count intervals of the machine's lifetime, not of one
// Run: in the steady-state serving shape (Reset + Run per request) traffic
// keeps accumulating across Runs and drains only when an epoch fills —
// that cadence, not the request rate, bounds both the telemetry cost and
// its staleness. Call FlushEpoch before reading final results from the
// observer.
func (c *CPU) EnableEpochSampling(obs EpochObserver) {
	c.FlushEpoch()
	c.sampleObs = obs
}

// FlushEpoch drains the partial epoch in flight, if any: the observer sees
// all traffic up to the last executed instruction, and the epoch-length
// histogram and the epochs counter gain the partial interval (it drains
// outside any Run, so exportRun does not count it). A no-op when nothing
// accumulated.
func (c *CPU) FlushEpoch() {
	if c.sinceDrain > 0 {
		var tr []SlotTraffic
		if c.trafficPD != nil {
			tr = c.traffic[:len(c.trafficPD.Slots)]
		}
		c.drainEpoch(c.trafficPD, tr, c.sinceDrain, false)
		c.Record.Add("machine.fastpath.epochs", 1)
		c.sinceDrain = 0
	}
}

// TraceEpochs emits one child span of parent per telemetry epoch,
// annotated with its step count and, on the final epoch of a fast-loop
// segment, the bail reason. Like EnableEpochSampling, it does not force
// the instrumented path.
func (c *CPU) TraceEpochs(parent *trace.Span) { c.epochParent = parent }

// samplingOn reports whether any epoch-grained sink is attached; when
// false the fast loop runs with zero telemetry work beyond Bails/Steps
// accounting at exits.
func (c *CPU) samplingOn() bool {
	return c.sampleObs != nil || c.epochParent != nil
}

// epochLen is the configured epoch length in steps.
func (c *CPU) epochLen() int64 {
	if c.EpochSteps > 0 {
		return c.EpochSteps
	}
	return DefaultEpochSteps
}

// beginFast opens one fast-loop segment's telemetry: the per-slot traffic
// buffer (allocated once per CPU and reused across segments and Resets)
// and, unless one is already in flight, the epoch's span. Accumulated
// traffic is bound to the table it indexes, so a table change (rebuild
// after self-modified text, a different frontend) flushes the pending
// epoch against the old table first. Returns the traffic buffer, nil when
// no observer will consume it.
func (c *CPU) beginFast(pd *Predecode) []SlotTraffic {
	var tr []SlotTraffic
	if c.sampleObs != nil {
		if c.trafficPD != pd {
			c.FlushEpoch()
			c.trafficPD = pd
			if cap(c.traffic) < len(pd.Slots) {
				c.traffic = make([]SlotTraffic, len(pd.Slots))
			}
		}
		tr = c.traffic[:len(pd.Slots)]
	}
	if c.epochSpan == nil {
		c.beginEpochSpan()
	}
	return tr
}

// note logs the first touch of a slot, so draining scales with the slots
// an epoch executed. Out-of-line on purpose: the fused loop calls it only
// on a slot's 0->1 transition.
func (c *CPU) note(idx uint32) {
	c.touched = append(c.touched, int32(idx))
}

func (c *CPU) beginEpochSpan() {
	if c.epochParent != nil {
		c.epochSpan = c.epochParent.Child("machine.epoch")
	}
}

// drainEpoch closes one telemetry epoch of steps instructions: observes
// the epoch length, hands the slot traffic to the observer (clearing it
// for the next epoch), and finishes the epoch's span. When more is true
// the fast loop continues and the next epoch's span opens; empty epochs
// drain nothing.
func (c *CPU) drainEpoch(pd *Predecode, tr []SlotTraffic, steps int64, more bool) {
	if steps > 0 {
		c.Fast.Epochs++
		c.Record.ObserveValue("machine.fastpath.epoch_len", steps)
		if c.sampleObs != nil && tr != nil {
			for _, i := range c.touched {
				tr[i].Steps += tr[i].Fetches * int32(pd.Slots[i].EntryLen)
			}
			c.sampleObs.ObserveEpoch(pd, tr, c.touched)
			for _, i := range c.touched {
				tr[i] = SlotTraffic{}
			}
			c.touched = c.touched[:0]
		}
	}
	if c.epochSpan != nil {
		c.epochSpan.SetInt("steps", steps)
		c.epochSpan.End()
		c.epochSpan = nil
	}
	if more {
		c.beginEpochSpan()
	}
}

// JournalLen is the fetch journal's capacity in table fetches: large
// enough that draining is a tight loop over a cache-resident buffer, small
// enough (16 KiB) to stay in L1/L2 next to the slot table.
const JournalLen = 4096

// beginJournal returns the emptied fetch journal for one fast-loop
// segment, nil when no TraceFetch hook is attached. The buffer is
// allocated once per CPU and reused across segments, Runs and Resets;
// runFast appends one slot index per table fetch and bounds its step
// limit by the free room, so the journal never grows. It is handed out
// by pointer, so the loop carries one word for it rather than a slice
// header.
func (c *CPU) beginJournal() *[]uint32 {
	if c.TraceFetch == nil {
		return nil
	}
	if c.journal == nil {
		c.journal = make([]uint32, 0, JournalLen)
	}
	c.journal = c.journal[:0]
	return &c.journal
}

// drainFetches delivers the journaled table fetches to TraceFetch in fetch
// order, one (byte address, MemBytes) call per entry — exactly the
// accesses Step reports for the same instructions (expansion
// continuations touch no program memory and are never journaled) — and
// empties the journal.
func (c *CPU) drainFetches(pd *Predecode, jl *[]uint32) {
	for _, idx := range *jl {
		c.TraceFetch(UnitByteAddr(pd.Base, idx<<pd.Shift, pd.UnitBits), int(pd.Slots[idx].MemBytes))
	}
	*jl = (*jl)[:0]
}

// endFast closes one fast-loop segment: delivers the fetches still in the
// journal (jl, nil when none is kept), accumulates the segment's steps into
// Fast.Steps and records why the loop exited. Draining here, before the
// slow path resumes, keeps TraceFetch's sequence in fetch order across a
// bail and complete when Run returns. The epoch in flight is NOT drained —
// its traffic carries over to the next segment (or Run) so telemetry cost
// stays on the epoch cadence, not the Run rate; the span annotates each
// segment's bail as it happens. FlushEpoch forces the final partial epoch
// out.
func (c *CPU) endFast(pd *Predecode, jl *[]uint32, reason BailReason, entrySteps, epochStart int64) {
	if jl != nil {
		c.drainFetches(pd, jl)
	}
	c.Fast.Steps += c.Stats.Steps - entrySteps
	c.Fast.Bails[reason]++
	if c.samplingOn() {
		c.sinceDrain += c.Stats.Steps - epochStart
		c.epochSpan.Set("bail", reason.String())
	}
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
// counters plus the fast-path accounting. Every bail counter is exported
// (including zeros) so snapshots always show the full reason vocabulary;
// slow_steps is the instrumented-path remainder, letting coverage be
// derived from any single recorder as
// steps/(steps+slow_steps).
func (c *CPU) exportRun(before Stats, fastBefore FastStats) {
	rec := c.Record
	steps := c.Stats.Steps - before.Steps
	fast := c.Fast.Steps - fastBefore.Steps
	rec.Add("machine.steps", steps)
	rec.Add("machine.expanded", c.Stats.Expanded-before.Expanded)
	rec.Add("machine.fetched_bytes", c.Stats.FetchedBytes-before.FetchedBytes)
	rec.Add("machine.mem_fetches", c.Stats.MemFetches-before.MemFetches)
	rec.Add("machine.fastpath.steps", fast)
	rec.Add("machine.fastpath.slow_steps", steps-fast)
	rec.Add("machine.fastpath.epochs", c.Fast.Epochs-fastBefore.Epochs)
	for r := range c.Fast.Bails {
		rec.Add(bailCounterNames[r], c.Fast.Bails[r]-fastBefore.Bails[r])
	}
}
