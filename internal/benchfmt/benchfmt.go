// Package benchfmt owns the repository's BENCH_*.json trajectory format:
// parsing `go test -bench` output into it (command benchjson), comparing
// two trajectory files (command benchdiff), and the sample statistics —
// per-metric distributions with 95% confidence intervals and a
// Mann-Whitney U significance test — that make those comparisons robust
// to run-to-run noise. Keeping the schema in one package means the
// writer, the regression gate and the perf-history ledger
// (internal/perfhist) can never drift apart.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Canonical metric names for the built-in `go test -bench` units, used as
// keys into Benchmark.Samples alongside the custom b.ReportMetric names.
const (
	MetricNs     = "ns/op"
	MetricBytes  = "B/op"
	MetricAllocs = "allocs/op"
	MetricMBs    = "MB/s"
)

// Benchmark is one benchmark's aggregated result. With `go test -count=N`
// the same benchmark name appears N times in the output; Parse folds the
// duplicates into one Benchmark whose point fields (NsPerOp, Metrics, …)
// hold per-metric means and whose Samples carry every raw observation.
// Single-sample reports serialize exactly as they did before Samples
// existed (the field is omitted), so committed baselines stay loadable
// in both directions.
type Benchmark struct {
	// Name is the benchmark's name without the -N suffix `go test -bench`
	// appends when GOMAXPROCS > 1, so runs on hosts with different core
	// counts compare by name.
	Name string `json:"name"`

	// Procs is the GOMAXPROCS value that suffix recorded; 0 when the line
	// carried none.
	Procs int `json:"procs,omitempty"`

	// Iterations is the total b.N across all samples of this benchmark.
	Iterations int64 `json:"iterations"`

	// Point values: the per-metric sample means (the sample value itself
	// when N=1).
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"b_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	MBPerSec    *float64           `json:"mb_per_s,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`

	// Samples holds every raw observation per metric (keyed by MetricNs,
	// MetricBytes, … or the custom metric name), present only when the
	// report was built from more than one sample.
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// Report is the file layout.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Find returns the named benchmark.
func (r *Report) Find(name string) (Benchmark, bool) {
	if b := r.find(name); b != nil {
		return *b, true
	}
	return Benchmark{}, false
}

// ReadFile loads a BENCH_*.json report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(data, rep); err != nil {
		if syn, ok := err.(*json.SyntaxError); ok {
			return nil, fmt.Errorf("benchfmt: %s: offset %d: %w", path, syn.Offset, err)
		}
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	return rep, nil
}

// Parse converts `go test -bench` output into a report. It fails when no
// benchmark lines are found, so an empty or broken bench run can never
// silently produce an empty trajectory file. Duplicate result lines for
// one benchmark name — what `go test -count=N` emits — accumulate as
// samples: the point fields become per-metric means, Iterations the total
// across runs, and Samples the raw observations feeding Dist and the
// Mann-Whitney significance test.
func Parse(sc *bufio.Scanner) (*Report, error) {
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	rep := &Report{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := parseBench(line)
			if err != nil {
				return nil, fmt.Errorf("%q: %w", line, err)
			}
			rep.add(b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	rep.finalize()
	return rep, nil
}

// add accumulates one parsed result line into the report: a first
// occurrence starts the benchmark's sample arrays, a duplicate name
// appends to them. Point fields are recomputed from the samples by
// finalize.
func (r *Report) add(b Benchmark) {
	e := r.find(b.Name)
	if e == nil {
		r.Benchmarks = append(r.Benchmarks, b)
		e = &r.Benchmarks[len(r.Benchmarks)-1]
		e.Samples = map[string][]float64{}
	} else {
		e.Iterations += b.Iterations
	}
	e.Samples[MetricNs] = append(e.Samples[MetricNs], b.NsPerOp)
	if b.BytesPerOp != nil {
		e.Samples[MetricBytes] = append(e.Samples[MetricBytes], *b.BytesPerOp)
	}
	if b.AllocsPerOp != nil {
		e.Samples[MetricAllocs] = append(e.Samples[MetricAllocs], *b.AllocsPerOp)
	}
	if b.MBPerSec != nil {
		e.Samples[MetricMBs] = append(e.Samples[MetricMBs], *b.MBPerSec)
	}
	for m, v := range b.Metrics {
		e.Samples[m] = append(e.Samples[m], v)
	}
}

// finalize folds each benchmark's samples into its point fields (means)
// and drops the Samples map entirely for single-sample benchmarks, so a
// -count=1 run serializes byte-identically to the pre-sample schema.
func (r *Report) finalize() {
	for i := range r.Benchmarks {
		b := &r.Benchmarks[i]
		multi := false
		for _, s := range b.Samples {
			if len(s) > 1 {
				multi = true
			}
		}
		if !multi {
			b.Samples = nil
			continue
		}
		mean := func(s []float64) float64 { return NewDist(s).Mean }
		b.NsPerOp = mean(b.Samples[MetricNs])
		for _, u := range []struct {
			key string
			dst **float64
		}{
			{MetricBytes, &b.BytesPerOp},
			{MetricAllocs, &b.AllocsPerOp},
			{MetricMBs, &b.MBPerSec},
		} {
			if s := b.Samples[u.key]; len(s) > 0 {
				v := mean(s)
				*u.dst = &v
			}
		}
		for m := range b.Metrics {
			if s := b.Samples[m]; len(s) > 0 {
				b.Metrics[m] = mean(s)
			}
		}
	}
}

// parseBench parses one result line: name, iteration count, then
// (value, unit) pairs.
func parseBench(line string) (Benchmark, error) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Benchmark{}, fmt.Errorf("malformed result line")
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("iterations: %w", err)
	}
	name, procs := splitProcs(f[0])
	b := Benchmark{Name: name, Procs: procs, Iterations: iters}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("value %q: %w", f[i], err)
		}
		// v is re-declared each iteration, so taking its address is safe.
		switch f[i+1] {
		case MetricNs:
			b.NsPerOp = v
		case MetricBytes:
			b.BytesPerOp = &v
		case MetricAllocs:
			b.AllocsPerOp = &v
		case MetricMBs:
			b.MBPerSec = &v
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[f[i+1]] = v
		}
	}
	return b, nil
}

// splitProcs splits a result line's name into the benchmark name and the
// trailing -N GOMAXPROCS suffix: BenchmarkX/sub/case-2 is
// BenchmarkX/sub/case at 2 procs. A name without the suffix has procs 0.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || strings.TrimLeft(name[i+1:], "0123456789") != "" {
		return name, 0
	}
	procs, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 0 // no digits, or more than an int holds
	}
	return name[:i], procs
}

// Dist returns the distribution of the named metric: computed over the
// raw samples when the benchmark carries them, else degenerating to the
// single point value (N=1, zero spread). The second result is false when
// the benchmark does not track the metric at all.
func (b *Benchmark) Dist(metric string) (Dist, bool) {
	if s := b.Samples[metric]; len(s) > 0 {
		return NewDist(s), true
	}
	switch metric {
	case MetricNs:
		return NewDist([]float64{b.NsPerOp}), true
	case MetricBytes:
		if b.BytesPerOp != nil {
			return NewDist([]float64{*b.BytesPerOp}), true
		}
	case MetricAllocs:
		if b.AllocsPerOp != nil {
			return NewDist([]float64{*b.AllocsPerOp}), true
		}
	case MetricMBs:
		if b.MBPerSec != nil {
			return NewDist([]float64{*b.MBPerSec}), true
		}
	default:
		if v, ok := b.Metrics[metric]; ok {
			return NewDist([]float64{v}), true
		}
	}
	return Dist{}, false
}

// AddDerived attaches metrics computed across benchmarks, stored on a
// benchmark's Metrics so each ratio itself rides the trajectory and is
// regression-gated, not just the raw values (which move together with
// host speed; their quotients do not):
//
//   - compressed_vs_native_ratio: BenchmarkCompressedExecution's ns/op
//     over BenchmarkNativeExecution's — the cost of executing compressed.
//   - sampled_profiling_overhead_ratio: BenchmarkSampledExecution's ns/op
//     over BenchmarkCompressedExecution's — the cost of always-on guest
//     profiling (the fetch-journal call-tree profiler) over the bare fast
//     path (CI ceiling 1.10).
//   - fastpath_coverage: BenchmarkSampledExecution's faststeps/op over its
//     steps/op — the share of execution the fused loop supplied.
//
// With multi-sample inputs each derived metric carries its own sample
// set, giving the -max ceiling a confidence interval to gate on. How
// samples pair up depends on where they come from. Cross-benchmark
// ratios (the two overhead ratios) divide samples from *independent*
// runs — `go test -count=N` runs each benchmark N consecutive times, so
// sample i of the numerator and sample i of the denominator share
// nothing — and are paired after sorting both sides: the i-th order
// statistic over the i-th order statistic, a quantile-matched ratio
// whose spread reflects the distributions' relationship rather than the
// (arbitrary) run pairing. fastpath_coverage divides two metrics of the
// *same* benchmark, where index i on both sides is the same run, so it
// pairs by index exactly. Non-finite pairs (zero or NaN denominators)
// are skipped, and each derivation is independently a no-op when a side
// is absent or no finite pair survives.
func (r *Report) AddDerived() {
	r.deriveRatio("BenchmarkCompressedExecution", "compressed_vs_native_ratio",
		"BenchmarkNativeExecution")
	r.deriveRatio("BenchmarkSampledExecution", "sampled_profiling_overhead_ratio",
		"BenchmarkCompressedExecution")
	if b := r.find("BenchmarkSampledExecution"); b != nil {
		b.storeDerived("fastpath_coverage",
			pairwiseRatios(b.metricSamples("faststeps/op"), b.metricSamples("steps/op")))
	}
}

// find returns a mutable pointer to the named benchmark, nil when absent.
func (r *Report) find(name string) *Benchmark {
	for i := range r.Benchmarks {
		if r.Benchmarks[i].Name == name {
			return &r.Benchmarks[i]
		}
	}
	return nil
}

// deriveRatio stores name's ns/op over base's ns/op as metric on name,
// pairing the two sides' samples as sorted order statistics (see
// AddDerived for why cross-benchmark samples must not pair by run index).
func (r *Report) deriveRatio(name, metric, base string) {
	b, bb := r.find(name), r.find(base)
	if b == nil || bb == nil {
		return
	}
	b.storeDerived(metric, pairwiseRatios(
		sortedCopy(b.metricSamples(MetricNs)), sortedCopy(bb.metricSamples(MetricNs))))
}

// sortedCopy returns the samples in ascending order without mutating the
// report's own arrays.
func sortedCopy(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// metricSamples returns the raw samples of a metric, falling back to the
// single point value for sample-less reports. A metric the benchmark does
// not track yields nil.
func (b *Benchmark) metricSamples(metric string) []float64 {
	if s := b.Samples[metric]; len(s) > 0 {
		return s
	}
	if d, ok := b.Dist(metric); ok {
		return []float64{d.Mean}
	}
	return nil
}

// storeDerived records a derived metric's mean (and, with more than one
// surviving pair, its sample set) on the benchmark. No-op when ratios is
// empty, so a missing input side never fabricates a metric.
func (b *Benchmark) storeDerived(metric string, ratios []float64) {
	if len(ratios) == 0 {
		return
	}
	if b.Metrics == nil {
		b.Metrics = map[string]float64{}
	}
	b.Metrics[metric] = NewDist(ratios).Mean
	if len(ratios) > 1 {
		if b.Samples == nil {
			b.Samples = map[string][]float64{}
		}
		b.Samples[metric] = ratios
	}
}

// pairwiseRatios divides num[i] by den[i] over the shorter length,
// skipping pairs whose quotient is not finite (zero denominators, NaN or
// Inf inputs), so derived metrics can never leak NaN/Inf into a report.
func pairwiseRatios(num, den []float64) []float64 {
	n := len(num)
	if len(den) < n {
		n = len(den)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if den[i] == 0 {
			continue
		}
		v := num[i] / den[i]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, v)
	}
	return out
}

// Ceiling is one absolute bound on a metric: unlike the relative
// Regressions gate, it fails on the value itself (e.g.
// compressed_vs_native_ratio must stay under 1.15 no matter what the
// baseline said).
type Ceiling struct {
	Metric string
	Limit  float64
}

// Exceeded checks the report against a set of ceilings. With multi-sample
// reports the bound is evaluated against the metric's 95% CI upper bound,
// not the mean — one lucky sample cannot sneak a regression under an
// absolute gate — degrading to the point value for single-sample reports.
// It returns the violating (bench, metric, evaluated value) entries, and
// an error if a ceiling names a metric no benchmark in the report
// carries — a gate silently checking nothing is the failure mode this
// exists to prevent.
func (r *Report) Exceeded(ceilings []Ceiling) ([]MetricDelta, error) {
	var out []MetricDelta
	for _, c := range ceilings {
		found := false
		for i := range r.Benchmarks {
			b := &r.Benchmarks[i]
			if _, ok := b.Metrics[c.Metric]; !ok {
				continue
			}
			found = true
			d, _ := b.Dist(c.Metric)
			if d.CIHigh > c.Limit {
				out = append(out, MetricDelta{
					Bench: b.Name, Metric: c.Metric, Old: c.Limit, New: d.CIHigh,
					NewDist: d, P: math.NaN(),
				})
			}
		}
		if !found {
			return nil, fmt.Errorf("ceiling metric %q not present in report (metrics present: %s)",
				c.Metric, strings.Join(r.MetricNames(), ", "))
		}
	}
	return out, nil
}

// MetricNames returns every custom metric name any benchmark in the
// report carries, sorted and deduplicated — so a misspelled gate can be
// diagnosed from its own error message.
func (r *Report) MetricNames() []string {
	seen := map[string]bool{}
	for _, b := range r.Benchmarks {
		for m := range b.Metrics {
			seen[m] = true
		}
	}
	names := make([]string, 0, len(seen))
	for m := range seen {
		names = append(names, m)
	}
	sort.Strings(names)
	return names
}

// MetricDelta is one measurement's movement between two reports. Old and
// New are the per-side means; OldDist/NewDist the full distributions; P
// the two-sided Mann-Whitney p-value, NaN when either side lacks the two
// samples a significance test needs.
type MetricDelta struct {
	Bench   string  // benchmark name
	Metric  string  // "ns/op" or a custom metric name
	Old     float64 // mean in the old report
	New     float64 // mean in the new report
	OldDist Dist
	NewDist Dist
	P       float64
}

// Pct is the relative change in percent; +Inf-free: a zero old value with
// a nonzero new value reports 100%.
func (d MetricDelta) Pct() float64 {
	if d.Old == 0 {
		if d.New == 0 {
			return 0
		}
		return 100
	}
	return 100 * (d.New - d.Old) / d.Old
}

// Significant reports whether both sides carried enough samples to run
// the Mann-Whitney test and it rejected "same distribution" at alpha.
func (d MetricDelta) Significant(alpha float64) bool {
	return !math.IsNaN(d.P) && d.P <= alpha
}

// Comparison is the outcome of diffing two reports.
type Comparison struct {
	Deltas  []MetricDelta // benchmarks present in both, in old-report order
	OldOnly []string      // benchmarks that disappeared
	NewOnly []string      // benchmarks that appeared
}

// Compare matches benchmarks by name and computes per-metric deltas:
// ns/op always, then every custom metric the two sides share (quantiles
// like selbits-p99), sorted by metric name within a benchmark. A metric
// only one side carries produces no delta row (the benchmark-level
// OldOnly/NewOnly lists cover whole benchmarks appearing/disappearing).
// Each delta carries both sides' distributions and, when both sides have
// at least two samples, a Mann-Whitney p-value.
func Compare(old, new *Report) *Comparison {
	c := &Comparison{}
	for _, ob := range old.Benchmarks {
		nb, ok := new.Find(ob.Name)
		if !ok {
			c.OldOnly = append(c.OldOnly, ob.Name)
			continue
		}
		c.Deltas = append(c.Deltas, newDelta(ob, nb, MetricNs, ob.NsPerOp, nb.NsPerOp))
		shared := make([]string, 0, len(ob.Metrics))
		for m := range ob.Metrics {
			if _, ok := nb.Metrics[m]; ok {
				shared = append(shared, m)
			}
		}
		sort.Strings(shared)
		for _, m := range shared {
			c.Deltas = append(c.Deltas, newDelta(ob, nb, m, ob.Metrics[m], nb.Metrics[m]))
		}
	}
	for _, nb := range new.Benchmarks {
		if _, ok := old.Find(nb.Name); !ok {
			c.NewOnly = append(c.NewOnly, nb.Name)
		}
	}
	return c
}

// newDelta assembles one metric's delta row with distributions and, when
// both sides have >= 2 samples, the Mann-Whitney p-value.
func newDelta(ob, nb Benchmark, metric string, oldV, newV float64) MetricDelta {
	d := MetricDelta{Bench: ob.Name, Metric: metric, Old: oldV, New: newV, P: math.NaN()}
	d.OldDist, _ = ob.Dist(metric)
	d.NewDist, _ = nb.Dist(metric)
	if len(ob.Samples[metric]) >= 2 && len(nb.Samples[metric]) >= 2 {
		d.P = MannWhitneyU(ob.Samples[metric], nb.Samples[metric])
	}
	return d
}

// Regressions returns the deltas whose value grew by more than threshold
// percent. All tracked metrics are costs (time, bytes, quantile sizes),
// so growth is always the bad direction.
func (c *Comparison) Regressions(threshold float64) []MetricDelta {
	var out []MetricDelta
	for _, d := range c.Deltas {
		if d.Pct() > threshold {
			out = append(out, d)
		}
	}
	return out
}

// SignificantRegressions filters Regressions down to the deltas that are
// also statistically significant at alpha: a mean that grew past the
// threshold but whose distributions the Mann-Whitney test cannot tell
// apart is scheduler noise, not a regression. Deltas without enough
// samples for the test (either side single-sample) are kept — absence of
// evidence must fail the gate, not wave it through.
func (c *Comparison) SignificantRegressions(threshold, alpha float64) []MetricDelta {
	var out []MetricDelta
	for _, d := range c.Deltas {
		if d.Pct() <= threshold {
			continue
		}
		if math.IsNaN(d.P) || d.P <= alpha {
			out = append(out, d)
		}
	}
	return out
}
