package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// EngineOptions configures a parallel experiment run.
type EngineOptions struct {
	// Parallel bounds the number of concurrently executing units of work —
	// experiment runners and the per-benchmark rows inside them share one
	// pool. 0 means runtime.GOMAXPROCS(0); 1 runs fully sequentially.
	Parallel int

	// Recorder, when non-nil, accumulates the totals of every experiment's
	// per-run recorder (for a whole-run report). Each Result additionally
	// carries its own per-experiment snapshot.
	Recorder *stats.Recorder

	// Tracer, when non-nil, collects one span tree per experiment
	// (experiment:<id> at the root; corpus, pipeline and row spans below)
	// for Chrome trace-event export. Nil disables tracing at zero cost.
	Tracer *trace.Tracer
}

// Result is one experiment's outcome.
type Result struct {
	ID    string
	Title string
	Table *Table // nil when Err is set
	Err   error

	// Wall is the experiment's wall-clock time, as measured by the
	// recorder's experiment.wall phase.
	Wall time.Duration

	// Stats is the experiment's own recorder snapshot: corpus activity
	// (generations, compressions — cache hits perform neither), pipeline
	// phase timings, dictionary-builder counters and machine counters
	// attributable to this experiment's cache misses and runs.
	Stats stats.Snapshot
}

// Engine runs experiment runners over one shared corpus on a bounded
// worker pool. Output is deterministic: results come back in input order
// and each table's rows are built in paper order regardless of which
// worker finished first, so a parallel run renders byte-identically to a
// sequential one.
type Engine struct {
	corpus *Corpus
	opt    EngineOptions
}

// NewEngine wraps a corpus. The corpus may be shared with other engines or
// direct callers; its caches deduplicate concurrent work.
func NewEngine(c *Corpus, opt EngineOptions) *Engine {
	if opt.Parallel <= 0 {
		opt.Parallel = runtime.GOMAXPROCS(0)
	}
	return &Engine{corpus: c, opt: opt}
}

// Run executes the runners and returns one Result per runner, in input
// order. The first runner error (in input order) is also returned as the
// engine error; remaining experiments still run to completion unless the
// context is cancelled. A cancelled context abandons unstarted work and
// returns the context error.
func (e *Engine) Run(ctx context.Context, runners []Runner) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sem := make(chan struct{}, e.opt.Parallel)
	results := make([]Result, len(runners))
	var wg sync.WaitGroup

launch:
	for i, r := range runners {
		// Each runner occupies one pool slot; its rows borrow further slots
		// through the corpus view's worker pool.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			for j := i; j < len(runners); j++ {
				results[j] = Result{ID: runners[j].ID, Title: runners[j].Title, Err: ctx.Err()}
			}
			break launch
		}
		wg.Add(1)
		go func(i int, r Runner) {
			defer wg.Done()
			defer func() { <-sem }()
			rec := stats.New()
			sp := e.opt.Tracer.Root("experiment:"+r.ID).
				Set("id", r.ID).Set("title", r.Title).SetInt("slot", int64(i))
			view := e.corpus.Bound(ctx, sem, rec).WithSpan(sp)
			t0 := time.Now()
			tab, err := r.Run(view)
			wall := time.Since(t0)
			sp.End()
			rec.Observe("experiment.wall", wall)
			snap := rec.Snapshot()
			results[i] = Result{
				ID:    r.ID,
				Title: r.Title,
				Table: tab,
				Err:   err,
				Wall:  wall,
				Stats: snap,
			}
			e.opt.Recorder.Merge(snap)
		}(i, r)
	}
	wg.Wait()

	for _, res := range results {
		if res.Err != nil {
			return results, fmt.Errorf("%s: %w", res.ID, res.Err)
		}
	}
	return results, nil
}

// RunIDs resolves experiment ids (nil or empty means all, in paper order)
// and runs them.
func (e *Engine) RunIDs(ctx context.Context, ids []string) ([]Result, error) {
	runners, err := ResolveIDs(ids)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, runners)
}

// ResolveIDs maps experiment ids to runners; nil or empty selects every
// deterministic experiment in paper order (Timing experiments, whose
// numbers are host-dependent, run only when named explicitly).
func ResolveIDs(ids []string) ([]Runner, error) {
	if len(ids) == 0 {
		return Deterministic(), nil
	}
	out := make([]Runner, 0, len(ids))
	for _, id := range ids {
		r, ok := Find(id)
		if !ok {
			return nil, fmt.Errorf("bench: unknown experiment %q", id)
		}
		out = append(out, r)
	}
	return out, nil
}

// ParallelEach runs fn(0..n-1) on its own bounded pool of the given width
// — the same caller-participates scheduler experiment rows use — and
// returns the first error encountered (all started work completes first).
// It serves callers outside an engine run, like ccfleet's fleet
// compressions.
func ParallelEach(ctx context.Context, parallel, n int, fn func(i int) error) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, parallel)
	select {
	case sem <- struct{}{}: // the caller's slot
	case <-ctx.Done():
		return ctx.Err()
	}
	defer func() { <-sem }()
	c := &Corpus{ctx: ctx, sem: sem}
	return c.each(n, fn)
}
