// Package bench runs the paper's experiments: one runner per table and
// figure of the evaluation (plus the extension experiments), shared
// between the experiments command and the testing.B benchmarks at the
// repository root. Results come back as renderable tables so both callers
// print identical rows. The Engine executes runners — and the
// per-benchmark rows inside them — on a bounded worker pool over a corpus
// whose caches deduplicate in-flight work, so sweeps scale with cores
// while producing byte-identical output to a sequential run.
package bench

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

// flight is one singleflight cache slot: the first requester computes the
// value while later requesters wait on done. Completed flights stay in the
// cache as the memoized result, so deduplication and memoization are the
// same mechanism.
type flight[T any] struct {
	done chan struct{}
	val  T
	err  error
}

func newFlight[T any]() *flight[T] { return &flight[T]{done: make(chan struct{})} }

// corpusState is the cache shared by every view of a corpus.
type corpusState struct {
	mu     sync.Mutex
	progs  map[string]*flight[*program.Program]
	builds map[imageKey]*flight[*dictionary.Selection] // per family: maxEntries is the scheme maximum
	images map[imageKey]*flight[*core.Image]
}

// Corpus memoizes generated benchmarks and compression results so sweeps
// that revisit configurations do not recompute them. It is safe for
// concurrent use: parallel callers asking for the same key never duplicate
// a generation or compression (the loser waits for the winner's result),
// and no lock is held across the underlying computation.
//
// A Corpus value is a view: Bound returns a view sharing the same caches
// but carrying a context for cancellation, a worker pool for row-level
// parallelism, and a stats recorder. The zero-configured view from
// NewCorpus runs sequentially and records nothing.
type Corpus struct {
	state *corpusState

	// Engine-bound view configuration (nil/zero on a plain corpus).
	ctx context.Context
	sem chan struct{} // bounded worker pool; nil means sequential rows
	rec *stats.Recorder
	sp  *trace.Span // parent span for work done through this view
}

// imageKey captures the cacheable compression parameters. Profile-guided
// runs (Options.DynProfile) are never cached; callers compress directly.
// Keys are computed over core-normalized Options so configurations that
// produce identical images (e.g. MaxEntries 0 vs an explicit scheme
// maximum) share one cache entry.
type imageKey struct {
	name        string
	scheme      codeword.Scheme
	maxEntries  int
	maxEntryLen int
	strategy    dictionary.Strategy
}

func keyFor(name string, opt core.Options) imageKey {
	opt = opt.Normalized()
	return imageKey{
		name:        name,
		scheme:      opt.Scheme,
		maxEntries:  opt.MaxEntries,
		maxEntryLen: opt.MaxEntryLen,
		strategy:    opt.Strategy,
	}
}

// NewCorpus creates an empty cache.
func NewCorpus() *Corpus {
	return &Corpus{state: &corpusState{
		progs:  map[string]*flight[*program.Program]{},
		builds: map[imageKey]*flight[*dictionary.Selection]{},
		images: map[imageKey]*flight[*core.Image]{},
	}}
}

// Bound returns a view of the corpus sharing its caches but carrying the
// engine's context (checked before starting and while waiting for work),
// worker pool (used by runners for row-level parallelism) and recorder
// (receives corpus, pipeline and machine counters). Any argument may be
// nil.
func (c *Corpus) Bound(ctx context.Context, sem chan struct{}, rec *stats.Recorder) *Corpus {
	return &Corpus{state: c.state, ctx: ctx, sem: sem, rec: rec, sp: c.sp}
}

// WithSpan returns a view whose corpus work (generations, compressions,
// rows) emits child spans under sp. A nil span disables tracing for the
// view.
func (c *Corpus) WithSpan(sp *trace.Span) *Corpus {
	v := *c
	v.sp = sp
	return &v
}

// Recorder returns the view's stats recorder (nil on an unbound corpus —
// still a valid sink).
func (c *Corpus) Recorder() *stats.Recorder { return c.rec }

// Span returns the view's parent trace span (nil on an untraced view —
// still a valid parent).
func (c *Corpus) Span() *trace.Span { return c.sp }

// err reports the view's cancellation state.
func (c *Corpus) err() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// Names lists the benchmarks in the paper's order.
func (c *Corpus) Names() []string { return synth.BenchmarkNames() }

// Fork returns a corpus sharing the generated programs but with empty
// build and image caches — benchmarks use it so each timed iteration
// re-runs the compressions being measured while amortizing program
// generation.
func (c *Corpus) Fork() *Corpus {
	c.state.mu.Lock()
	defer c.state.mu.Unlock()
	f := NewCorpus()
	for k, v := range c.state.progs {
		f.state.progs[k] = v
	}
	return f
}

// wait blocks until the flight completes or the view is cancelled.
func waitFlight[T any](c *Corpus, f *flight[T]) (T, error) {
	if c.ctx == nil {
		<-f.done
	} else {
		select {
		case <-f.done:
		case <-c.ctx.Done():
			var zero T
			return zero, c.ctx.Err()
		}
	}
	return f.val, f.err
}

// Program returns the named benchmark, generating it on first use. Only
// one caller generates a given benchmark; concurrent requesters share the
// result.
func (c *Corpus) Program(name string) (*program.Program, error) {
	if err := c.err(); err != nil {
		return nil, err
	}
	st := c.state
	st.mu.Lock()
	f, ok := st.progs[name]
	if ok {
		st.mu.Unlock()
		return waitFlight(c, f)
	}
	f = newFlight[*program.Program]()
	st.progs[name] = f
	st.mu.Unlock()

	sp := c.sp.Phase("corpus.generate", c.rec).Set("bench", name)
	f.val, f.err = synth.Generate(name)
	sp.End()
	c.rec.Add("corpus.generations", 1)
	close(f.done)
	return f.val, f.err
}

// Image compresses the named benchmark under the options, memoized on the
// normalized parameters. Only one caller compresses a given configuration;
// concurrent requesters share the result. Options carrying a DynProfile
// are rejected — profile-guided images are not cacheable by parameters
// alone.
func (c *Corpus) Image(name string, opt core.Options) (*core.Image, error) {
	if opt.DynProfile != nil {
		return nil, fmt.Errorf("bench: profile-guided compression is not cacheable; call core.Compress directly")
	}
	if err := c.err(); err != nil {
		return nil, err
	}
	key := keyFor(name, opt)
	st := c.state
	st.mu.Lock()
	f, ok := st.images[key]
	if ok {
		st.mu.Unlock()
		return waitFlight(c, f)
	}
	f = newFlight[*core.Image]()
	st.images[key] = f
	st.mu.Unlock()

	f.val, f.err = c.compress(name, opt)
	close(f.done)
	return f.val, f.err
}

// compress is the flight body: generate (or fetch) the program, take the
// first opt.MaxEntries selections of its family's memoized build, and
// assemble the image, with the view's recorder threaded through.
func (c *Corpus) compress(name string, opt core.Options) (*core.Image, error) {
	p, err := c.Program(name)
	if err != nil {
		return nil, err
	}
	opt = opt.Normalized()
	opt.Stats = c.rec
	sp := c.sp.Phase("corpus.compress", c.rec).Set("bench", name).Set("scheme", opt.Scheme.String())
	opt.Trace = sp
	var img *core.Image
	sel, err := c.build(name, p, opt)
	if err == nil {
		img, err = core.CompressBuilt(p.Clone(), sel.Prefix(p.Text, opt.MaxEntries), opt)
	}
	sp.End()
	c.rec.Add("corpus.compressions", 1)
	if err != nil {
		return nil, fmt.Errorf("bench: compressing %s: %w", name, err)
	}
	return img, nil
}

// build returns the Selection of p's dictionary build for opt's family —
// the options with MaxEntries at the scheme maximum — building it on first
// use. Every cap of the family is a prefix of that build (see
// dictionary.Config.MaxEntries), so a sweep over dictionary sizes builds
// each family once. The build's phases nest under opt.Trace, the span of
// the compression that first needed it.
//
// Only image flight owners call build, and owners run to completion, so
// waiting here ignores cancellation: a cancelled view must not latch
// ctx.Err() into the image cache.
func (c *Corpus) build(name string, p *program.Program, opt core.Options) (*dictionary.Selection, error) {
	opt.MaxEntries = opt.Scheme.MaxEntries()
	key := keyFor(name, opt)
	st := c.state
	st.mu.Lock()
	f, ok := st.builds[key]
	if ok {
		st.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f = newFlight[*dictionary.Selection]()
	st.builds[key] = f
	st.mu.Unlock()

	res, err := core.Build(p, opt)
	if err == nil {
		f.val = res.Selection()
	}
	f.err = err
	c.rec.Add("corpus.builds", 1)
	close(f.done)
	return f.val, f.err
}

// each runs fn(0..n-1) and returns the first error. On an engine-bound
// view it distributes the indices over the shared worker pool: the calling
// goroutine always participates (it already owns a pool slot, so progress
// is guaranteed even when the pool is saturated), and helper goroutines
// join for any additional slots they can acquire. On a plain corpus it is
// a sequential loop. Completion order is arbitrary; callers index into
// pre-sized result slices to keep output deterministic.
func (c *Corpus) each(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	// run wraps one unit of work in a row span attributing it to the pool
	// worker that executed it (0 = the calling goroutine, 1.. = helpers).
	run := fn
	if c.sp != nil {
		run = func(i int) error { return c.tracedItem(i, 0, fn) }
	}
	if c.sem == nil || cap(c.sem) <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if err := c.err(); err != nil {
				return err
			}
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		mu       sync.Mutex
		next     int
		firstErr error
	)
	claim := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if firstErr != nil || next >= n {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	work := func(worker int) {
		for {
			if err := c.err(); err != nil {
				fail(err)
				return
			}
			i, ok := claim()
			if !ok {
				return
			}
			var err error
			if c.sp != nil {
				err = c.tracedItem(i, worker, fn)
			} else {
				err = fn(i)
			}
			if err != nil {
				fail(err)
			}
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	helpers := cap(c.sem)
	if helpers > n-1 {
		helpers = n - 1
	}
	var ctxDone <-chan struct{}
	if c.ctx != nil {
		ctxDone = c.ctx.Done()
	}
	for h := 0; h < helpers; h++ {
		h := h
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case c.sem <- struct{}{}:
				defer func() { <-c.sem }()
				work(h + 1)
			case <-done:
			case <-ctxDone:
			}
		}()
	}
	work(0) // caller participates on its own pool slot
	close(done)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	return firstErr
}

// tracedItem runs one unit of pool work under a row span carrying the
// item index and the executing worker.
func (c *Corpus) tracedItem(i, worker int, fn func(i int) error) error {
	sp := c.sp.Child("row").SetInt("row", int64(i)).SetInt("worker", int64(worker))
	err := fn(i)
	sp.End()
	return err
}

// rowsInOrder builds n table rows concurrently on the corpus's pool and
// appends them to t in index order, so parallel execution renders
// byte-identically to sequential.
func rowsInOrder(c *Corpus, t *Table, n int, fn func(i int) ([]string, error)) error {
	rows := make([][]string, n)
	if err := c.each(n, func(i int) error {
		row, err := fn(i)
		rows[i] = row
		return err
	}); err != nil {
		return err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return nil
}
