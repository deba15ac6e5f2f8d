package benchfmt

import (
	"bufio"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Testing CPU
BenchmarkCompressNibble/go-8         	      10	 123456789 ns/op	       0.450 ratio	  1024 B/op	      12 allocs/op
BenchmarkDictionary/gcc-8            	       5	 987654321 ns/op	      55.00 selbits-p99
PASS
`

func parseSample(t *testing.T) *Report {
	t.Helper()
	rep, err := Parse(bufio.NewScanner(strings.NewReader(sampleOutput)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestParse(t *testing.T) {
	rep := parseSample(t)
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.Pkg != "repro" || rep.CPU != "Testing CPU" {
		t.Fatalf("header: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkCompressNibble/go" || b.Procs != 8 || b.Iterations != 10 || b.NsPerOp != 123456789 {
		t.Fatalf("bench 0: %+v", b)
	}
	if b.Metrics["ratio"] != 0.45 || b.BytesPerOp == nil || *b.BytesPerOp != 1024 {
		t.Fatalf("bench 0 metrics: %+v", b)
	}
	if rep.Benchmarks[1].Metrics["selbits-p99"] != 55 {
		t.Fatalf("bench 1 metrics: %+v", rep.Benchmarks[1])
	}
}

// TestParseSplitsProcs: the -N suffix `go test -bench` appends when
// GOMAXPROCS > 1 moves from the name into Procs, at any sub-benchmark
// depth; names without one keep procs 0, and only an all-digit tail
// counts as a suffix.
func TestParseSplitsProcs(t *testing.T) {
	for _, tc := range []struct {
		line, name string
		procs      int
	}{
		{"BenchmarkX-4 10 100 ns/op", "BenchmarkX", 4},
		{"BenchmarkX/sub/case-2 10 100 ns/op", "BenchmarkX/sub/case", 2},
		{"BenchmarkX 10 100 ns/op", "BenchmarkX", 0},
		{"BenchmarkX/sub/case 10 100 ns/op", "BenchmarkX/sub/case", 0},
		{"BenchmarkX/a-b 10 100 ns/op", "BenchmarkX/a-b", 0},
		{"BenchmarkX/trailing- 10 100 ns/op", "BenchmarkX/trailing-", 0},
	} {
		rep, err := Parse(bufio.NewScanner(strings.NewReader(tc.line)))
		if err != nil {
			t.Fatalf("%q: %v", tc.line, err)
		}
		if b := rep.Benchmarks[0]; b.Name != tc.name || b.Procs != tc.procs {
			t.Errorf("%q: name %q procs %d, want %q procs %d", tc.line, b.Name, b.Procs, tc.name, tc.procs)
		}
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := Parse(bufio.NewScanner(strings.NewReader("PASS\nok\n"))); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

func TestCompare(t *testing.T) {
	old := parseSample(t)
	newer := parseSample(t)
	newer.Benchmarks[0].NsPerOp *= 1.5              // 50% slower
	newer.Benchmarks[1].Metrics["selbits-p99"] = 44 // improved
	newer.Benchmarks[1].Name = "BenchmarkRenamed/x" // disappeared + appeared

	c := Compare(old, newer)
	if len(c.OldOnly) != 1 || len(c.NewOnly) != 1 {
		t.Fatalf("only-lists: %+v", c)
	}
	// Matched benchmark: ns/op and the shared ratio metric.
	var ns, ratio *MetricDelta
	for i := range c.Deltas {
		d := &c.Deltas[i]
		if d.Bench != "BenchmarkCompressNibble/go" {
			t.Fatalf("unexpected delta %+v", d)
		}
		switch d.Metric {
		case "ns/op":
			ns = d
		case "ratio":
			ratio = d
		}
	}
	if ns == nil || ratio == nil {
		t.Fatalf("missing deltas: %+v", c.Deltas)
	}
	if pct := ns.Pct(); pct < 49.9 || pct > 50.1 {
		t.Fatalf("ns/op pct %v", pct)
	}
	if ratio.Pct() != 0 {
		t.Fatalf("ratio pct %v", ratio.Pct())
	}

	if regs := c.Regressions(20); len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("regressions(20): %+v", regs)
	}
	if regs := c.Regressions(60); len(regs) != 0 {
		t.Fatalf("regressions(60): %+v", regs)
	}
}

func TestExceeded(t *testing.T) {
	rep := parseSample(t)
	over, err := rep.Exceeded([]Ceiling{{Metric: "ratio", Limit: 0.4}})
	if err != nil || len(over) != 1 || over[0].New != 0.45 {
		t.Fatalf("exceeded = %+v, err %v", over, err)
	}
	over, err = rep.Exceeded([]Ceiling{{Metric: "ratio", Limit: 0.5}})
	if err != nil || len(over) != 0 {
		t.Fatalf("under-ceiling = %+v, err %v", over, err)
	}
}

func TestExceededAbsentMetricListsPresent(t *testing.T) {
	rep := parseSample(t)
	_, err := rep.Exceeded([]Ceiling{{Metric: "no_such_metric", Limit: 1}})
	if err == nil {
		t.Fatal("absent ceiling metric accepted")
	}
	// The failure is self-diagnosing: it names the metrics that DO exist.
	for _, want := range []string{"no_such_metric", "ratio", "selbits-p99"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}

func TestMetricDeltaPctZeroOld(t *testing.T) {
	if p := (MetricDelta{Old: 0, New: 5}).Pct(); p != 100 {
		t.Fatalf("pct from zero = %v", p)
	}
	if p := (MetricDelta{Old: 0, New: 0}).Pct(); p != 0 {
		t.Fatalf("pct zero/zero = %v", p)
	}
}

// countOutput renders a -count=3 run: each benchmark line repeats with
// per-run values.
const countOutput = `goos: linux
pkg: repro
BenchmarkX-8   10   100 ns/op   0.40 ratio
BenchmarkX-8   12   110 ns/op   0.50 ratio
BenchmarkX-8   11   120 ns/op   0.60 ratio
BenchmarkY-8    5   500 ns/op
PASS
`

func parseCount(t *testing.T) *Report {
	t.Helper()
	rep, err := Parse(bufio.NewScanner(strings.NewReader(countOutput)))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestParseAccumulatesSamples is the regression test for the duplicate
// benchmark-line bug: Parse used to keep only the last occurrence of a
// repeated name, silently discarding every earlier -count sample.
func TestParseAccumulatesSamples(t *testing.T) {
	rep := parseCount(t)
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(rep.Benchmarks))
	}
	x := rep.Benchmarks[0]
	if x.Name != "BenchmarkX" || x.Procs != 8 {
		t.Fatalf("bench 0: %+v", x)
	}
	if x.Iterations != 33 {
		t.Errorf("Iterations = %d, want 33 (sum across runs)", x.Iterations)
	}
	if x.NsPerOp != 110 {
		t.Errorf("NsPerOp = %v, want mean 110", x.NsPerOp)
	}
	if x.Metrics["ratio"] != 0.5 {
		t.Errorf("ratio = %v, want mean 0.5", x.Metrics["ratio"])
	}
	wantNs := []float64{100, 110, 120}
	if got := x.Samples[MetricNs]; len(got) != 3 || got[0] != wantNs[0] || got[1] != wantNs[1] || got[2] != wantNs[2] {
		t.Errorf("ns samples = %v, want %v", got, wantNs)
	}
	if got := x.Samples["ratio"]; len(got) != 3 {
		t.Errorf("ratio samples = %v, want 3 entries", got)
	}
	// Single-sample benchmarks drop Samples so the serialized form is
	// byte-identical to the pre-sample schema.
	if y := rep.Benchmarks[1]; y.Samples != nil {
		t.Errorf("single-sample benchmark kept Samples: %v", y.Samples)
	}
}

func TestSamplesRoundTripJSON(t *testing.T) {
	rep := parseCount(t)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.Benchmarks[0].Samples[MetricNs]; len(got) != 3 {
		t.Fatalf("samples lost in round-trip: %v", got)
	}
	if strings.Contains(string(data), `"BenchmarkY","procs":8,"iterations":5,"ns_per_op":500,"samples"`) {
		t.Fatal("single-sample benchmark serialized a samples field")
	}
}

func TestCompareOneSidedMetric(t *testing.T) {
	// A metric only one side carries must not produce a delta row —
	// there is nothing to compare it against.
	old := &Report{Benchmarks: []Benchmark{{Name: "B", NsPerOp: 100,
		Metrics: map[string]float64{"only_old": 1}}}}
	newer := &Report{Benchmarks: []Benchmark{{Name: "B", NsPerOp: 100,
		Metrics: map[string]float64{"only_new": 2}}}}
	c := Compare(old, newer)
	if len(c.Deltas) != 1 || c.Deltas[0].Metric != MetricNs {
		t.Fatalf("deltas = %+v, want ns/op only", c.Deltas)
	}
}

func TestCompareSignificance(t *testing.T) {
	mk := func(ns []float64) *Report {
		b := Benchmark{Name: "B", Samples: map[string][]float64{MetricNs: ns}}
		b.NsPerOp = NewDist(ns).Mean
		return &Report{Benchmarks: []Benchmark{b}}
	}
	// Noise: ~15% mean movement but heavily overlapping spreads.
	old := mk([]float64{100, 140, 105, 150, 117})
	noisy := mk([]float64{110, 160, 120, 140, 152})
	c := Compare(old, noisy)
	d := c.Deltas[0]
	if d.Pct() < 10 {
		t.Fatalf("test setup: pct = %v, want a >10%% mean move", d.Pct())
	}
	if d.Significant(DefaultAlpha) {
		t.Errorf("overlapping distributions tested significant (p=%v)", d.P)
	}
	if regs := c.SignificantRegressions(10, DefaultAlpha); len(regs) != 0 {
		t.Errorf("noise failed the significant gate: %+v", regs)
	}

	// Genuine shift: every new sample beyond every old one.
	shifted := mk([]float64{130, 131, 132, 133, 134})
	base := mk([]float64{100, 101, 102, 103, 104})
	c = Compare(base, shifted)
	d = c.Deltas[0]
	if !d.Significant(DefaultAlpha) {
		t.Errorf("clean 30%% shift not significant (p=%v)", d.P)
	}
	if regs := c.SignificantRegressions(10, DefaultAlpha); len(regs) != 1 {
		t.Errorf("genuine shift passed the significant gate: %+v", regs)
	}

	// Too few samples on one side: p is NaN and the gate still fails.
	single := &Report{Benchmarks: []Benchmark{{Name: "B", NsPerOp: 130}}}
	c = Compare(base, single)
	if !math.IsNaN(c.Deltas[0].P) {
		t.Errorf("single-sample side produced p=%v, want NaN", c.Deltas[0].P)
	}
	if regs := c.SignificantRegressions(10, DefaultAlpha); len(regs) != 1 {
		t.Errorf("untestable regression waved through: %+v", regs)
	}
}

func TestExceededUsesCIUpperBound(t *testing.T) {
	// Mean 1.0 is under the 1.05 ceiling, but the spread pushes the 95%
	// CI upper bound over it — the gate must fail on the bound.
	b := Benchmark{Name: "B", Metrics: map[string]float64{"r": 1.0},
		Samples: map[string][]float64{"r": {0.9, 1.0, 1.1}}}
	rep := &Report{Benchmarks: []Benchmark{b}}
	over, err := rep.Exceeded([]Ceiling{{Metric: "r", Limit: 1.05}})
	if err != nil || len(over) != 1 {
		t.Fatalf("over = %+v, err %v", over, err)
	}
	if over[0].New <= 1.05 {
		t.Errorf("reported value %v should be the CI bound above the limit", over[0].New)
	}
	// A wide enough ceiling clears the bound.
	if over, _ := rep.Exceeded([]Ceiling{{Metric: "r", Limit: 2}}); len(over) != 0 {
		t.Errorf("limit 2 violated: %+v", over)
	}
	// Tight samples: CI stays under the same 1.05 ceiling the spread broke.
	b.Samples["r"] = []float64{0.99, 1.0, 1.01}
	rep = &Report{Benchmarks: []Benchmark{b}}
	if over, _ := rep.Exceeded([]Ceiling{{Metric: "r", Limit: 1.05}}); len(over) != 0 {
		t.Errorf("tight CI flagged: %+v", over)
	}

	// The path CI takes: BenchmarkExecutionRatios reports the paired
	// ratio as a custom metric on each of its -count lines, and the bound
	// is over exactly those samples.
	rep, err = Parse(bufio.NewScanner(strings.NewReader(`pkg: repro
BenchmarkExecutionRatios-2   100   400000 ns/op   1.010 compressed_vs_native_ratio
BenchmarkExecutionRatios-2   100   410000 ns/op   1.020 compressed_vs_native_ratio
BenchmarkExecutionRatios-2   100   405000 ns/op   1.030 compressed_vs_native_ratio
PASS
`)))
	if err != nil {
		t.Fatal(err)
	}
	want := NewDist([]float64{1.010, 1.020, 1.030}).CIHigh
	// The mean (1.02) is under 1.04; the upper bound (~1.045) is not.
	over, err = rep.Exceeded([]Ceiling{{Metric: "compressed_vs_native_ratio", Limit: 1.04}})
	if err != nil || len(over) != 1 || over[0].New != want || over[0].NewDist.N != 3 {
		t.Fatalf("over = %+v, err %v; want the upper bound %v of the 3 samples", over, err, want)
	}
	if over, err := rep.Exceeded([]Ceiling{{Metric: "compressed_vs_native_ratio", Limit: 1.15}}); err != nil || len(over) != 0 {
		t.Errorf("ceiling 1.15: over = %+v, err %v", over, err)
	}
	if _, err := rep.Exceeded([]Ceiling{{Metric: "sampled_profiling_overhead_ratio", Limit: 1.10}}); err == nil {
		t.Error("a ceiling on a ratio the run did not report passed")
	}
}
