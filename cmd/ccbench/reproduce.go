package main

import (
	"context"
	_ "embed"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/codeword"
	"repro/internal/core"
)

// golden is the output of `experiments -parallel 1` with its timing lines
// removed: every deterministic table's Render() followed by a blank line.
//
//go:embed testdata/reproduce.golden
var golden string

// reproduce runs the paper's deterministic experiment set. It ignores the
// seed: the paper's corpus is what defines the reproduction.
type reproduce struct {
	base    *bench.Corpus // the generated corpus; each pass forks it
	runners []bench.Runner
	want    map[string]string // experiment id -> expected table text
	words   int64
	ratios  []float64
}

func setupReproduce(e *env) (inputs, error) {
	want, err := goldenTables(golden)
	if err != nil {
		return nil, err
	}
	runners := bench.Deterministic()
	if e.scale.experiments != nil {
		runners = nil
		for _, id := range e.scale.experiments {
			r, ok := bench.Find(id)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q", id)
			}
			runners = append(runners, r)
		}
	}
	for _, r := range runners {
		if _, ok := want[r.ID]; !ok {
			return nil, fmt.Errorf("experiment %s has no golden table", r.ID)
		}
	}
	r := &reproduce{base: bench.NewCorpus(), runners: runners, want: want}
	for _, name := range r.base.Names() {
		sp := e.span.Child("synth.generate")
		p, err := r.base.Program(name)
		sp.End()
		if err != nil {
			return nil, err
		}
		r.words += int64(len(p.Text))
	}
	return r, nil
}

// goldenTables splits the golden text into one expected rendering per
// experiment, keyed by id.
func goldenTables(text string) (map[string]string, error) {
	out := map[string]string{}
	for _, sec := range strings.SplitAfter(text, "\n\n") {
		if sec == "" {
			continue
		}
		head, ok := strings.CutPrefix(sec, "== ")
		id, _, found := strings.Cut(head, ": ")
		if !ok || !found {
			return nil, fmt.Errorf("golden: section without a table header: %.40q", sec)
		}
		out[id] = strings.TrimSuffix(sec, "\n")
	}
	return out, nil
}

// pass runs every experiment, one op each, on a fork of the corpus: the
// generated programs are shared, the image cache starts empty.
func (r *reproduce) pass(m *meter) {
	fork := r.base.Fork()
	eng := bench.NewEngine(fork, bench.EngineOptions{Parallel: 1, Recorder: m.stats, Tracer: m.tr})
	for _, run := range r.runners {
		sp := m.op()
		res, err := eng.Run(context.Background(), []bench.Runner{run})
		sp.End()
		switch {
		case err != nil:
			m.fail("%s: %v", run.ID, err)
		case res[0].Table.Render() != r.want[run.ID]:
			m.fail("%s: table differs from the golden copy", run.ID)
		default:
			m.tally.addExperiment(run.ID, res[0].Wall)
		}
	}
	if r.ratios == nil {
		// Baseline images of the paper's corpus; the experiments have
		// already built them, so these are cache hits.
		for _, name := range fork.Names() {
			img, err := fork.Image(name, core.Options{Scheme: codeword.Baseline, MaxEntryLen: 4})
			if err != nil {
				m.fail("baseline image of %s: %v", name, err)
				continue
			}
			r.ratios = append(r.ratios, img.Ratio())
		}
	}
}

// work charges each pass the paper's corpus once.
func (r *reproduce) work() int64 { return r.words }

func (r *reproduce) ratio() float64 { return geomean(r.ratios) }
