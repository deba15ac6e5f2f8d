// Command ccbench is the repository's benchmark: one workload per run, in
// its own process, driven from one goroutine in a closed loop.
//
//	bash cmd/ccbench/run.sh --workload W --seed S --seconds N --trace 0|1
//
// The run generates its inputs from the seed and works in three rounds:
// each sets the workload up from scratch, then runs passes (the
// workload's fixed list of ops) for a third of the given seconds, checking
// every output. Times are scaled to the speed of a fixed yardstick kernel
// run around them (yardstick.go), which cancels most of a shared host's
// drift. It prints each metric as "name value unit n=samples" and, as the
// last line, one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced run
// (--trace 1) reports the per-layer metrics and writes a Chrome trace and
// the layer numbers to -tracedir. A failed op is counted, not fatal; the
// exit status is non-zero only when set-up fails or the flags are wrong.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], full, os.Stdout, os.Stderr))
}

// run parses the flags, runs one workload at the given scale and prints
// the result. It returns the exit status.
func run(args []string, sc scale, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: reproduce, compress, fleet, execute or icache")
	seed := fs.Int64("seed", 0, "input seed; 0 is the paper's corpus (reproduce always uses it)")
	seconds := fs.Float64("seconds", 10, "time to spend running passes")
	traced := fs.Int("trace", 0, "1 for a traced run reporting the per-layer metrics")
	traceDir := fs.String("tracedir", ".bench_build/trace", "where a traced run writes <workload>.trace.json and <workload>.layers.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *seconds < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "ccbench: usage: -workload W -seed S -seconds N -trace 0|1 (workloads: %v)\n", workloadNames())
		return 2
	}

	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d\n", w.Name, *seed, *seconds, *traced)
	res, err := measure(options{
		workload: w, seed: *seed, seconds: *seconds, trace: *traced == 1,
		traceDir: *traceDir, scale: sc, log: stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "ccbench: %s: %v\n", w.Name, err)
		return 1
	}

	defs := endToEnd
	if *traced == 1 {
		defs = perLayer()
	}
	out := result{res.failed == 0, res.attempted, res.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		v := res.metrics[d.Name]
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			v.v = 0
		}
		fmt.Fprintf(stdout, "%s %g %s n=%d\n", d.Name, v.v, d.Unit, v.n)
		out.Metrics[d.Name] = jsonMetric{v.v, d.Unit}
	}
	fmt.Fprintf(stdout, "yardstick %g ms n=%d (times above are scaled to its reference %g ms)\n",
		res.yardstick.v, res.yardstick.n, float64(refYardstick)/float64(time.Millisecond))
	fmt.Fprintf(stdout, "attempted %d failed %d failed_frac %g\n", res.attempted, res.failed, div(float64(res.failed), float64(res.attempted)))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "ccbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// writeJSON writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
