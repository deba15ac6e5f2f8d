package main

import (
	"math"
	"sort"

	"repro/internal/bench"
)

// metric is one number the benchmark reports. Bound, set on end-to-end
// metrics only, is the share of the parent commit's median by which the
// metric may worsen before a change counts as a regression.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the toolchain sees, reported by every
// workload of an untraced run. Each must be seed-stable: the workloads draw
// different programs per seed, so a raw per-op latency (which follows the
// programs' sizes and step counts) would measure the seed, not the code.
// Time is therefore normalised by the instruction words a pass processed.
// Times are at the yardstick's reference speed (yardstick.go).
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ns_per_insn", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "ratio_geomean", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// selfFracLayers are the layers whose share of the traced wall time is
// reported as <layer>.self_frac.
var selfFracLayers = []string{"program", "dictionary", "core", "codec", "objfile", "machine", "bench"}

// perLayer lists the metrics of a traced run. A layer a workload never
// calls reports 0.
func perLayer() []metric {
	ms := func(name string) metric { return metric{Name: name, Unit: "ms", Better: "lower"} }
	count := func(name, better string) metric { return metric{Name: name, Unit: "count", Better: better} }
	out := []metric{
		ms("synth.generate_ms"),
		ms("program.analyze_ms"),
		ms("dictionary.build_ms"),
		ms("dictionary.enumerate_ms"),
		ms("dictionary.select_ms"),
		ms("dictionary.commit_ms"),
		count("dictionary.candidates", "lower"),
		count("dictionary.heap_pops", "lower"),
		count("dictionary.invalidations", "lower"),
		count("dictionary.reevaluations", "lower"),
		count("dictionary.entries", "higher"),
		{Name: "dictionary.commit_yield", Unit: "ratio", Better: "higher"},
		ms("core.encode_ms"),
		ms("core.patch_ms"),
		ms("core.shared_build_ms"),
		ms("core.compress_fixed_ms"),
		ms("core.verify_ms"),
	}
	for _, c := range codecNames() {
		out = append(out, ms("codec."+c+".compress_ms"), ms("codec."+c+".verify_ms"))
	}
	out = append(out,
		ms("objfile.write_ms"),
		ms("objfile.open_ms"),
		metric{Name: "objfile.image_bytes", Unit: "bytes", Better: "lower"},
		ms("machine.new_ms"),
		ms("machine.predecode_ms"),
		metric{Name: "machine.reset_us", Unit: "us", Better: "lower"},
		metric{Name: "machine.run_us", Unit: "us", Better: "lower"},
		metric{Name: "machine.ns_per_step.native", Unit: "ns", Better: "lower"},
		metric{Name: "machine.ns_per_step.compressed", Unit: "ns", Better: "lower"},
		metric{Name: "machine.ns_per_step.hooked", Unit: "ns", Better: "lower"},
		count("machine.steps", "lower"),
		metric{Name: "machine.fetched_bytes", Unit: "bytes", Better: "lower"},
		metric{Name: "machine.fast_coverage", Unit: "frac", Better: "higher"},
		count("machine.bails", "lower"),
		ms("machine.cold_start_p50_ms"),
		ms("machine.cold_start_p90_ms"),
		count("cache.accesses", "lower"),
		count("cache.misses", "lower"),
		metric{Name: "cache.self_ns_per_access", Unit: "ns", Better: "lower"},
		count("bench.corpus.compressions", "lower"),
	)
	for _, r := range bench.Deterministic() {
		out = append(out, ms("bench.experiment_ms."+r.ID))
	}
	out = append(out,
		// The raw yardstick time: how fast the host ran during the run.
		ms("bench.yardstick_ms"),
		metric{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower"},
		metric{Name: "runtime.gc_per_op", Unit: "count", Better: "lower"},
	)
	for _, l := range selfFracLayers {
		out = append(out, metric{Name: l + ".self_frac", Unit: "frac", Better: "lower"})
	}
	return append(out,
		metric{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
		metric{Name: "trace.unattributed_frac", Unit: "frac", Better: "lower"},
	)
}

// value is one measured number and the count of samples behind it.
type value struct {
	v float64
	n int
}

// report maps metric names to values.
type report map[string]value

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// div is a/b, or 0 when b is 0, so a layer a workload never calls reports
// 0 rather than NaN.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
