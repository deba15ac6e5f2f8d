// Command benchjson converts `go test -bench` output on stdin into the
// repository's BENCH_*.json trajectory format: one record per benchmark
// with ns/op, B/op, allocs/op and any custom metrics — ratio, steps/op,
// and the histogram quantiles the benchmarks report via b.ReportMetric
// (selbits-p50/p90/p99 for dictionary selection savings, explen-p50/p90/
// p99 for dynamic expansion lengths).
//
//	go test -run '^$' -bench 'Dictionary' -benchmem . | benchjson > BENCH_dictionary.json
//	go test -run '^$' -bench 'Dictionary' -count=5 . | benchjson > BENCH_dictionary.json
//
// With `-count=N` every benchmark repeats N times and the report carries
// all N raw samples per metric — point fields become means, and benchdiff
// gains per-side 95% confidence intervals plus a Mann-Whitney
// significance test for its -significant gate.
//
// It records what the benchmarks report and derives nothing: a ratio
// between two timings, such as compressed_vs_native_ratio, is formed by
// the benchmark that timed both sides (BenchmarkExecutionRatios), so each
// sample pairs runs taken moments apart.
//
// It fails (exit 1) when no benchmark lines are found, so an empty or
// broken bench run can never silently overwrite a trajectory file.
// The schema and parser live in internal/benchfmt, shared with benchdiff,
// cctrend and the perf-history ledger.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/benchfmt"
)

func main() {
	rep, err := benchfmt.Parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing stdin: %v\n", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
