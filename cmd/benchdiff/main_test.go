package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchfmt"
)

func writeReport(t *testing.T, dir, name string, ns []float64, metrics map[string][]float64) string {
	t.Helper()
	b := benchfmt.Benchmark{Name: "BenchmarkX", NsPerOp: benchfmt.NewDist(ns).Mean,
		Samples: map[string][]float64{}}
	if len(ns) > 1 {
		b.Samples[benchfmt.MetricNs] = ns
	}
	for m, s := range metrics {
		if b.Metrics == nil {
			b.Metrics = map[string]float64{}
		}
		b.Metrics[m] = benchfmt.NewDist(s).Mean
		if len(s) > 1 {
			b.Samples[m] = s
		}
	}
	if len(b.Samples) == 0 {
		b.Samples = nil
	}
	rep := benchfmt.Report{Benchmarks: []benchfmt.Benchmark{b}}
	data, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSignificantGateNoiseRobustness is the acceptance check for the
// noise-aware gate: run-to-run noise whose confidence intervals overlap
// passes `-significant` at a threshold the raw means exceed, while a
// genuine shift with separated distributions still fails.
func TestSignificantGateNoiseRobustness(t *testing.T) {
	dir := t.TempDir()

	// Noise: the means differ ~11% but the sample clouds interleave.
	old := writeReport(t, dir, "old.json", []float64{100, 140, 105, 150, 117}, nil)
	noisy := writeReport(t, dir, "noisy.json", []float64{110, 160, 120, 140, 152}, nil)
	// Plain threshold gate fails on the mean movement...
	if err := run(old, noisy, 10, false, benchfmt.DefaultAlpha, nil); err == nil {
		t.Fatal("test setup: plain gate should fail on an 11% mean move")
	}
	// ...but the significance-aware gate sees overlapping CIs and passes.
	if err := run(old, noisy, 10, true, benchfmt.DefaultAlpha, nil); err != nil {
		t.Errorf("-significant failed on CI-overlapping noise: %v", err)
	}

	// Genuine regression: ≥10% shift, non-overlapping sample clouds.
	base := writeReport(t, dir, "base.json", []float64{100, 101, 102, 103, 104}, nil)
	slow := writeReport(t, dir, "slow.json", []float64{115, 116, 117, 118, 119}, nil)
	err := run(base, slow, 10, true, benchfmt.DefaultAlpha, nil)
	if err == nil {
		t.Fatal("-significant passed a genuine 15% shift")
	}
	if !strings.Contains(err.Error(), base) || !strings.Contains(err.Error(), slow) {
		t.Errorf("gate error %q does not name both files", err)
	}
}

// TestSignificantGateFailsWithoutSamples: single-sample reports cannot be
// significance-tested, and an untestable regression must still fail.
func TestSignificantGateFailsWithoutSamples(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []float64{100}, nil)
	slow := writeReport(t, dir, "slow.json", []float64{150}, nil)
	if err := run(old, slow, 10, true, benchfmt.DefaultAlpha, nil); err == nil {
		t.Error("untestable 50% regression waved through")
	}
}

func TestCeilingAgainstCIUpperBound(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []float64{100}, nil)
	// Mean ratio 1.0 but wide spread: CI upper bound crosses 1.05.
	wide := writeReport(t, dir, "wide.json", []float64{100, 100, 100},
		map[string][]float64{"r": {0.9, 1.0, 1.1}})
	err := run(old, wide, 0, false, benchfmt.DefaultAlpha,
		[]benchfmt.Ceiling{{Metric: "r", Limit: 1.05}})
	if err == nil {
		t.Fatal("wide-CI ceiling violation passed")
	}
	if !strings.Contains(err.Error(), "wide.json") {
		t.Errorf("ceiling error %q does not name the offending file", err)
	}
	// Same mean with tight samples stays under the ceiling.
	tight := writeReport(t, dir, "tight.json", []float64{100, 100, 100},
		map[string][]float64{"r": {0.99, 1.0, 1.01}})
	if err := run(old, tight, 0, false, benchfmt.DefaultAlpha,
		[]benchfmt.Ceiling{{Metric: "r", Limit: 1.05}}); err != nil {
		t.Errorf("tight-CI report failed the same ceiling: %v", err)
	}
}

func TestAbsentCeilingMetricNamesFile(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", []float64{100}, nil)
	neu := writeReport(t, dir, "new.json", []float64{100}, nil)
	err := run(old, neu, 0, false, benchfmt.DefaultAlpha,
		[]benchfmt.Ceiling{{Metric: "no_such", Limit: 1}})
	if err == nil {
		t.Fatal("absent ceiling metric accepted")
	}
	if !strings.Contains(err.Error(), "new.json") || !strings.Contains(err.Error(), "no_such") {
		t.Errorf("error %q does not name the file and metric", err)
	}
}

// TestSuffixedRunMatchesBaseline: a bench run on a multi-core host names
// its benchmarks BenchmarkX-N. Parsed through benchjson's path, it must
// share every benchmark with the committed suffix-free baseline and pass
// the gate with the baseline's own numbers.
func TestSuffixedRunMatchesBaseline(t *testing.T) {
	const baseline = "../../baselines/BENCH_dictionary.json"
	base, err := benchfmt.ReadFile(baseline)
	if err != nil {
		t.Fatal(err)
	}
	// Re-render the baseline as `go test -bench -count=N` output at
	// GOMAXPROCS=2: one result line per sample, every name suffixed -2.
	var out strings.Builder
	for _, b := range base.Benchmarks {
		ns := b.Samples[benchfmt.MetricNs]
		if len(ns) == 0 {
			ns = []float64{b.NsPerOp}
		}
		for i, v := range ns {
			fmt.Fprintf(&out, "%s-2\t%d\t%v ns/op", b.Name, b.Iterations, v)
			for m, s := range b.Samples {
				if m != benchfmt.MetricNs && i < len(s) {
					fmt.Fprintf(&out, "\t%v %s", s[i], m)
				}
			}
			out.WriteString("\n")
		}
	}
	rep, err := benchfmt.Parse(bufio.NewScanner(strings.NewReader(out.String())))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rep.Benchmarks {
		if b.Procs != 2 {
			t.Fatalf("%s: procs %d, want 2", b.Name, b.Procs)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	neu := filepath.Join(t.TempDir(), "new.json")
	if err := os.WriteFile(neu, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if cmp := benchfmt.Compare(base, rep); len(cmp.OldOnly) != 0 || len(cmp.NewOnly) != 0 {
		t.Fatalf("suffixed run does not line up with the baseline: only in old %v, only in new %v", cmp.OldOnly, cmp.NewOnly)
	}
	if err := run(baseline, neu, 30, true, benchfmt.DefaultAlpha, nil); err != nil {
		t.Fatalf("suffixed run of the baseline's own numbers fails the gate: %v", err)
	}
}
