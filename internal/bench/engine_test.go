package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

// renderAll concatenates the rendered tables of a result set.
func renderAll(t *testing.T, results []Result) string {
	t.Helper()
	var sb strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.ID, r.Err)
		}
		sb.WriteString(r.Table.Render())
	}
	return sb.String()
}

// TestEngineDeterministic is the acceptance check for the parallel engine:
// running every experiment with a parallel pool must render byte-identical
// output to the sequential path. Both runs share the corpus, so the second
// pass re-executes only the non-cacheable work.
func TestEngineDeterministic(t *testing.T) {
	ctx := context.Background()
	par := NewEngine(sharedCorpus, EngineOptions{Parallel: 4})
	parResults, err := par.RunIDs(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewEngine(sharedCorpus, EngineOptions{Parallel: 1})
	seqResults, err := seq.RunIDs(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	det := Deterministic()
	if len(parResults) != len(det) || len(seqResults) != len(det) {
		t.Fatalf("result counts: parallel %d sequential %d want %d",
			len(parResults), len(seqResults), len(det))
	}
	for i, r := range parResults {
		if r.ID != det[i].ID {
			t.Errorf("result %d out of order: %s want %s", i, r.ID, det[i].ID)
		}
	}
	p, s := renderAll(t, parResults), renderAll(t, seqResults)
	if p != s {
		t.Errorf("parallel output differs from sequential:\n--- parallel ---\n%s\n--- sequential ---\n%s", p, s)
	}
}

func TestEngineRecordsStats(t *testing.T) {
	totals := stats.New()
	e := NewEngine(NewCorpus(), EngineOptions{Parallel: 4, Recorder: totals})
	// Two separate engine passes so the cache-attribution assertions below
	// are deterministic (concurrent experiments race for cache misses).
	results, err := e.RunIDs(context.Background(), []string{"fig4"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.RunIDs(context.Background(), []string{"table2"})
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, r2...)
	// fig4 compresses 8 benchmarks at 4 entry lengths; everything it needs
	// is a cache miss on a fresh corpus.
	fig4 := results[0]
	if got := fig4.Stats.Counter("corpus.compressions"); got != 32 {
		t.Errorf("fig4 compressions = %d, want 32", got)
	}
	if fig4.Stats.Counter("dict.heap_pops") == 0 {
		t.Error("dictionary builder counters missing from fig4 stats")
	}
	if fig4.Stats.Phase("core.build").Count == 0 || fig4.Stats.Phase("core.encode").Count == 0 {
		t.Error("core phase timers missing from fig4 stats")
	}
	if fig4.Wall <= 0 {
		t.Error("experiment wall time not recorded")
	}
	// table2's baseline configuration is len=4, already compressed by fig4:
	// the shared cache means zero new compressions.
	if got := results[1].Stats.Counter("corpus.compressions"); got != 0 {
		t.Errorf("table2 compressions = %d, want 0 (cache hits)", got)
	}
	// Engine totals aggregate both experiments.
	if got := totals.Snapshot().Counter("corpus.compressions"); got != 32 {
		t.Errorf("total compressions = %d, want 32", got)
	}
	if totals.Snapshot().Phase("experiment.wall").Count != 2 {
		t.Error("totals missing per-experiment wall phases")
	}
}

func TestEngineErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	runners := []Runner{
		{ID: "ok1", Title: "ok", Run: func(c *Corpus) (*Table, error) {
			tb := &Table{ID: "ok1", Columns: []string{"x"}}
			tb.AddRow("1")
			return tb, nil
		}},
		{ID: "bad", Title: "bad", Run: func(c *Corpus) (*Table, error) { return nil, boom }},
		{ID: "ok2", Title: "ok", Run: func(c *Corpus) (*Table, error) {
			tb := &Table{ID: "ok2", Columns: []string{"x"}}
			tb.AddRow("2")
			return tb, nil
		}},
	}
	e := NewEngine(NewCorpus(), EngineOptions{Parallel: 2})
	results, err := e.Run(context.Background(), runners)
	if !errors.Is(err, boom) {
		t.Fatalf("engine error = %v, want wrapped boom", err)
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Error("healthy experiments were poisoned by the failing one")
	}
	if results[1].Err == nil {
		t.Error("failing experiment's result lost its error")
	}
	if results[0].Table == nil || results[2].Table == nil {
		t.Error("healthy experiments missing tables")
	}
}

func TestEngineCancellation(t *testing.T) {
	started := make(chan struct{})
	block := make(chan struct{})
	var runners []Runner
	runners = append(runners, Runner{ID: "slow", Title: "slow", Run: func(c *Corpus) (*Table, error) {
		close(started)
		<-block
		return nil, errors.New("should have been cancelled first")
	}})
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("later%d", i)
		runners = append(runners, Runner{ID: id, Title: id, Run: func(c *Corpus) (*Table, error) {
			tb := &Table{ID: id, Columns: []string{"x"}}
			tb.AddRow("v")
			return tb, nil
		}})
	}
	ctx, cancel := context.WithCancel(context.Background())
	e := NewEngine(NewCorpus(), EngineOptions{Parallel: 1})
	done := make(chan struct{})
	var results []Result
	var err error
	go func() {
		results, err = e.Run(ctx, runners)
		close(done)
	}()
	<-started
	cancel()
	close(block)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("engine did not return after cancellation")
	}
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	cancelled := 0
	for _, r := range results[1:] {
		if errors.Is(r.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no unstarted experiment reported context.Canceled")
	}
}

func TestResolveIDs(t *testing.T) {
	all, err := ResolveIDs(nil)
	if err != nil || len(all) != len(Deterministic()) {
		t.Fatalf("ResolveIDs(nil) = %d runners, err %v", len(all), err)
	}
	for _, r := range all {
		if r.Timing {
			t.Errorf("ResolveIDs(nil) included timing experiment %q", r.ID)
		}
	}
	if _, err := ResolveIDs([]string{"exec"}); err != nil {
		t.Errorf("timing experiment not resolvable by name: %v", err)
	}
	two, err := ResolveIDs([]string{"fig5", "fig4"})
	if err != nil || len(two) != 2 || two[0].ID != "fig5" || two[1].ID != "fig4" {
		t.Fatalf("ResolveIDs order not preserved: %v err %v", two, err)
	}
	if _, err := ResolveIDs([]string{"nope"}); err == nil {
		t.Error("unknown id did not error")
	}
}

func TestParallelEach(t *testing.T) {
	const n = 50
	out := make([]int, n)
	if err := ParallelEach(context.Background(), 4, n, func(i int) error {
		out[i] = i + 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("item %d not executed", i)
		}
	}
	wantErr := errors.New("stop")
	err := ParallelEach(context.Background(), 4, n, func(i int) error {
		if i == 7 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("error not propagated: %v", err)
	}
}

// TestPhasesAreSpans: every pipeline phase is timed by the span of the
// same name, so a phase's Count is the number of those spans and its
// Nanos their summed duration, exactly — for a direct core.Compress and
// for an engine run.
func TestPhasesAreSpans(t *testing.T) {
	check := func(label string, rec *stats.Recorder, tr *trace.Tracer, names ...string) {
		t.Helper()
		count := map[string]int64{}
		nanos := map[string]int64{}
		for _, s := range tr.Spans() {
			count[s.Name]++
			nanos[s.Name] += int64(s.Dur)
		}
		snap := rec.Snapshot()
		for _, name := range names {
			p := snap.Phase(name)
			if p.Count == 0 || p.Count != count[name] || p.Nanos != nanos[name] {
				t.Errorf("%s: phase %s = %+v, spans %d summing %d ns", label, name, p, count[name], nanos[name])
			}
		}
	}

	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	rec, tr := stats.New(), trace.New()
	root := tr.Root("compress")
	if _, err := core.Compress(p, core.Options{Scheme: codeword.Nibble, Stats: rec, Trace: root}); err != nil {
		t.Fatal(err)
	}
	root.End()
	check("core.Compress", rec, tr, "core.analyze", "core.build", "core.encode", "core.patch")

	rec, tr = stats.New(), trace.New()
	e := NewEngine(NewCorpus(), EngineOptions{Parallel: 1, Recorder: rec, Tracer: tr})
	if _, err := e.Run(context.Background(), []Runner{{ID: "one", Run: func(c *Corpus) (*Table, error) {
		_, err := c.Image("compress", core.Options{Scheme: codeword.Baseline})
		return &Table{}, err
	}}}); err != nil {
		t.Fatal(err)
	}
	check("engine", rec, tr, "corpus.generate", "corpus.compress", "core.analyze", "core.build", "core.encode", "core.patch")
}
