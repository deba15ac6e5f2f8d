package main

import (
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/trace"
)

// layers folds the spans of a traced run into per-call durations and
// per-layer self time. Spans come from two places: the benchmark's own
// spans around every public call (named <layer>.<call>), and the
// library's existing hooks (Options.Trace, EngineOptions.Tracer), which
// nest core.*, dict.* and the experiment engine's spans below them.
type layers struct {
	calls  map[string][]time.Duration // every span's duration, by name
	self   map[string]time.Duration   // self time inside passes, by layer
	wall   time.Duration              // summed wall time of the traced passes
	passes int
}

func newLayers() *layers {
	return &layers{calls: map[string][]time.Duration{}, self: map[string]time.Duration{}}
}

// layerOf maps a span name to the module that owns its self time. The
// benchmark's own pass and op spans, and the set-up's cold_start span,
// belong to no layer: their self time is the benchmark's glue, which
// trace.unattributed_frac reports.
func layerOf(name string) string {
	switch {
	case name == "pass" || name == "op" || name == "cold_start":
		return ""
	case name == "core.analyze":
		return "program"
	case name == "core.build" || strings.HasPrefix(name, "dict."):
		return "dictionary"
	case strings.HasPrefix(name, "experiment:") || name == "row" || strings.HasPrefix(name, "corpus."):
		return "bench"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// add folds one tracer's spans. Spans under a "setup" root count only
// towards per-call metrics; everything else ran inside a pass. A span's
// self time is its duration minus its direct children's, so the layers'
// self times and the glue partition the pass wall time exactly.
func (l *layers) add(spans []trace.SpanInfo) {
	index := make(map[int64]int, len(spans))
	childDur := make([]time.Duration, len(spans))
	root := make([]string, len(spans))
	for i, s := range spans { // creation order: parents precede children
		index[s.ID] = i
		root[i] = s.Name
		if p, ok := index[s.Parent]; ok && s.Parent != 0 {
			root[i] = root[p]
			childDur[p] += s.Dur
		}
	}
	for i, s := range spans {
		l.calls[s.Name] = append(l.calls[s.Name], s.Dur)
		switch {
		case root[i] == "setup":
		case s.Name == "pass":
			l.wall += s.Dur
			l.passes++
		default:
			if layer := layerOf(s.Name); layer != "" {
				l.self[layer] += s.Dur - childDur[i]
			}
		}
	}
}

// mean is the mean duration of the named spans in the given unit.
func (l *layers) mean(unit time.Duration, name string) value {
	return meanOf(l.calls[name], unit)
}

// meanOf is the mean of durations in the given unit; 0 for none.
func meanOf(ds []time.Duration, unit time.Duration) value {
	return value{div(float64(sum(ds)), float64(len(ds))*float64(unit)), len(ds)}
}

func sum(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

// quantile is the q-quantile duration of the named spans in the given unit.
func (l *layers) quantile(q float64, unit time.Duration, names ...string) value {
	var xs []float64
	for _, name := range names {
		for _, d := range l.calls[name] {
			xs = append(xs, float64(d)/float64(unit))
		}
	}
	return value{quantile(xs, q), len(xs)}
}

// perPass is a counter's total divided by the number of traced passes.
func (l *layers) perPass(s stats.Snapshot, name string) value {
	return value{div(float64(s.Counter(name)), float64(l.passes)), l.passes}
}

// metrics derives the per-layer report from the folded spans, the
// snapshot of the recorder the library hooks and the machine counters
// wrote to, and the benchmark's own tally.
func (l *layers) metrics(s stats.Snapshot, t *tally) report {
	const ms, us = time.Millisecond, time.Microsecond
	rep := report{
		"synth.generate_ms":         l.mean(ms, "synth.generate"),
		"program.analyze_ms":        l.mean(ms, "core.analyze"),
		"dictionary.build_ms":       l.mean(ms, "core.build"),
		"dictionary.enumerate_ms":   l.mean(ms, "dict.enumerate"),
		"dictionary.select_ms":      l.mean(ms, "dict.select"),
		"dictionary.commit_ms":      l.mean(ms, "dict.commit"),
		"core.encode_ms":            l.mean(ms, "core.encode"),
		"core.patch_ms":             l.mean(ms, "core.patch"),
		"core.shared_build_ms":      l.mean(ms, "core.shared_build"),
		"core.compress_fixed_ms":    l.mean(ms, "core.compress_fixed"),
		"core.verify_ms":            l.mean(ms, "core.verify"),
		"objfile.write_ms":          l.mean(ms, "objfile.write"),
		"objfile.open_ms":           l.mean(ms, "objfile.open"),
		"machine.new_ms":            l.mean(ms, "machine.new"),
		"machine.predecode_ms":      l.mean(ms, "machine.predecode"),
		"machine.reset_us":          l.quantile(0.5, us, "machine.reset"),
		"machine.run_us":            l.quantile(0.5, us, runNative, runCompressed, runHooked),
		"machine.cold_start_p50_ms": l.quantile(0.5, ms, "cold_start"),
		"machine.cold_start_p90_ms": l.quantile(0.9, ms, "cold_start"),
	}

	builds := float64(s.Phase("core.build").Count)
	for _, c := range []string{"candidates", "heap_pops", "invalidations", "reevaluations", "entries"} {
		rep["dictionary."+c] = value{div(float64(s.Counter("dict."+c)), builds), int(builds)}
	}
	rep["dictionary.commit_yield"] = value{div(float64(s.Counter("dict.entries")), float64(s.Counter("dict.heap_pops"))), int(builds)}

	for _, c := range codecNames() {
		rep["codec."+c+".compress_ms"] = l.mean(ms, "codec."+c+".compress")
		rep["codec."+c+".verify_ms"] = l.mean(ms, "codec."+c+".verify")
	}
	rep["objfile.image_bytes"] = value{div(float64(t.imageBytes), float64(t.images)), int(t.images)}

	for _, span := range []string{runNative, runCompressed, runHooked} {
		class := strings.TrimPrefix(span, "machine.run.")
		runs := l.calls[span]
		rep["machine.ns_per_step."+class] = value{div(float64(sum(runs)), float64(t.steps[class])), len(runs)}
	}
	// Every Run ends in exactly one bail counter, so their sum counts runs.
	var runs, bails float64
	for name, v := range s.Counters {
		if reason, ok := strings.CutPrefix(name, bailPrefix); ok {
			runs += float64(v)
			if reason != machine.BailExit.String() {
				bails += float64(v)
			}
		}
	}
	rep["machine.steps"] = l.perPass(s, "machine.steps")
	rep["machine.fetched_bytes"] = l.perPass(s, "machine.fetched_bytes")
	rep["machine.fast_coverage"] = value{div(float64(s.Counter("machine.fastpath.steps")), float64(s.Counter("machine.steps"))), int(runs)}
	rep["machine.bails"] = value{div(bails, runs), int(runs)}
	rep["cache.accesses"] = l.perPass(s, "cache.accesses")
	rep["cache.misses"] = l.perPass(s, "cache.misses")
	rep["cache.self_ns_per_access"] = value{} // measured by the icache workload's extras
	rep["bench.corpus.compressions"] = l.perPass(s, "corpus.compressions")
	for _, r := range bench.Deterministic() {
		rep["bench.experiment_ms."+r.ID] = meanOf(t.experiments[r.ID], ms)
	}

	var attributed time.Duration
	for _, d := range l.self {
		attributed += d
	}
	for _, layer := range selfFracLayers {
		rep[layer+".self_frac"] = value{div(float64(l.self[layer]), float64(l.wall)), l.passes}
	}
	rep["trace.unattributed_frac"] = value{1 - div(float64(attributed), float64(l.wall)), l.passes}
	return rep
}
