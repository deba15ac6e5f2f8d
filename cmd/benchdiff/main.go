// Command benchdiff compares two BENCH_*.json trajectory files and
// reports per-benchmark deltas: ns/op always, plus every custom metric
// (compression ratios, steps/op, the selbits/explen histogram quantiles)
// the two sides share. With -threshold it becomes a regression gate,
// exiting 1 when any metric grew by more than the given percentage —
// every tracked metric is a cost, so growth is always the bad direction.
//
//	benchdiff old.json new.json              # report only
//	benchdiff -threshold 20 old.json new.json # fail on >20% regressions
//	benchdiff -threshold 20 -significant old.json new.json
//	benchdiff -max compressed_vs_native_ratio=1.15 old.json new.json
//
// -significant makes the threshold gate noise-aware: a regression only
// fails the build when it is also statistically significant under a
// two-sided Mann-Whitney U test (p <= -alpha, default 0.05) over the raw
// samples both reports carry (`go test -count=N` via benchjson). A mean
// that moved past the threshold but whose sample distributions the test
// cannot tell apart is scheduler noise and passes; a delta without
// enough samples on both sides still fails — absence of evidence does
// not wave a regression through.
//
// -max (repeatable) adds an absolute ceiling on a named metric in the NEW
// report, independent of the baseline: the execution-speed ratio must stay
// under its target even if the committed baseline drifted. With
// multi-sample reports the ceiling is checked against the metric's 95% CI
// upper bound, not a lucky single sample. A -max naming a metric absent
// from the new report fails, so the gate cannot silently rot. The gate
// reads metrics as the benchmarks reported them; the execution ratios it
// is used on are paired inside BenchmarkExecutionRatios, not derived here.
//
// Appeared/disappeared benchmarks are reported but never fail the gate:
// renames and new coverage are routine; silently comparing nothing is the
// failure mode this tool exists to prevent, so two reports with no
// benchmark in common do exit 1.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
)

// ceilingFlags collects repeatable -max name=value arguments.
type ceilingFlags []benchfmt.Ceiling

func (c *ceilingFlags) String() string {
	parts := make([]string, len(*c))
	for i, x := range *c {
		parts[i] = fmt.Sprintf("%s=%g", x.Metric, x.Limit)
	}
	return strings.Join(parts, ",")
}

func (c *ceilingFlags) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok || name == "" {
		return fmt.Errorf("want metric=value, got %q", s)
	}
	limit, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("limit %q: %w", val, err)
	}
	*c = append(*c, benchfmt.Ceiling{Metric: name, Limit: limit})
	return nil
}

func main() {
	threshold := flag.Float64("threshold", 0, "fail (exit 1) when any metric regresses by more than this percent; 0 disables the gate")
	significant := flag.Bool("significant", false, "with -threshold, only fail on regressions that are also statistically significant (Mann-Whitney p <= alpha over the reports' samples)")
	alpha := flag.Float64("alpha", benchfmt.DefaultAlpha, "significance level for -significant")
	var ceilings ceilingFlags
	flag.Var(&ceilings, "max", "metric=value absolute ceiling on the new report (repeatable), checked against the 95% CI upper bound when samples are present; fail when exceeded or the metric is absent")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [-threshold pct] [-significant] [-alpha p] [-max metric=value]... old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0), flag.Arg(1), *threshold, *significant, *alpha, ceilings); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
}

func run(oldPath, newPath string, threshold float64, significant bool, alpha float64, ceilings []benchfmt.Ceiling) error {
	oldRep, err := benchfmt.ReadFile(oldPath)
	if err != nil {
		return err
	}
	newRep, err := benchfmt.ReadFile(newPath)
	if err != nil {
		return err
	}
	cmp := benchfmt.Compare(oldRep, newRep)
	if len(cmp.Deltas) == 0 {
		return fmt.Errorf("%s and %s share no benchmarks", oldPath, newPath)
	}

	fmt.Printf("benchdiff: %s -> %s\n", oldPath, newPath)
	rows := [][]string{{"benchmark", "metric", "old", "new", "delta", "p"}}
	for _, d := range cmp.Deltas {
		rows = append(rows, []string{
			d.Bench, d.Metric, distCell(d.Old, d.OldDist), distCell(d.New, d.NewDist),
			fmt.Sprintf("%+.1f%%", d.Pct()), pCell(d.P),
		})
	}
	printAligned(rows)
	for _, n := range cmp.OldOnly {
		fmt.Printf("only in %s: %s\n", oldPath, n)
	}
	for _, n := range cmp.NewOnly {
		fmt.Printf("only in %s: %s\n", newPath, n)
	}

	if threshold > 0 {
		regs := cmp.Regressions(threshold)
		if significant {
			regs = cmp.SignificantRegressions(threshold, alpha)
		}
		if len(regs) > 0 {
			kind := ""
			if significant {
				kind = fmt.Sprintf(" significantly (p <= %g, or too few samples to test)", alpha)
			}
			fmt.Printf("\n%d metric(s) regressed beyond %.1f%%%s:\n", len(regs), threshold, kind)
			for _, d := range regs {
				fmt.Printf("  %s %s: %s -> %s (%+.1f%%, p %s)\n",
					d.Bench, d.Metric, num(d.Old), num(d.New), d.Pct(), pCell(d.P))
			}
			return fmt.Errorf("regression threshold exceeded (%s -> %s)", oldPath, newPath)
		}
		if significant {
			fmt.Printf("\nno metric regressed beyond %.1f%% with significance p <= %g\n", threshold, alpha)
		} else {
			fmt.Printf("\nno metric regressed beyond %.1f%%\n", threshold)
		}
	}
	if len(ceilings) > 0 {
		over, err := newRep.Exceeded(ceilings)
		if err != nil {
			return fmt.Errorf("%s: %w", newPath, err)
		}
		if len(over) > 0 {
			fmt.Printf("\n%d metric(s) exceeded an absolute ceiling:\n", len(over))
			for _, d := range over {
				bound := ""
				if d.NewDist.N > 1 {
					bound = fmt.Sprintf(" (CI upper bound of %d samples, mean %s)", d.NewDist.N, num(d.NewDist.Mean))
				}
				fmt.Printf("  %s %s: %s > limit %s%s\n", d.Bench, d.Metric, num(d.New), num(d.Old), bound)
			}
			return fmt.Errorf("absolute ceiling exceeded (%s)", newPath)
		}
		fmt.Printf("all %d absolute ceiling(s) hold\n", len(ceilings))
	}
	return nil
}

// distCell renders a metric's value for the delta table: the bare mean
// for single-sample sides, "mean ±halfwidth (n)" once a 95% CI exists.
func distCell(mean float64, d benchfmt.Dist) string {
	if d.N <= 1 {
		return num(mean)
	}
	return fmt.Sprintf("%s ±%s (n=%d)", num(d.Mean), num(d.CIHigh-d.Mean), d.N)
}

// pCell renders a Mann-Whitney p-value; "-" when there were not enough
// samples to test.
func pCell(p float64) string {
	if math.IsNaN(p) {
		return "-"
	}
	return fmt.Sprintf("%.3f", p)
}

// num renders a metric value compactly: integers without a fraction,
// everything else with enough digits to see small movements.
func num(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	if v >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// printAligned renders rows as left-aligned columns two spaces apart.
func printAligned(rows [][]string) {
	width := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	for _, r := range rows {
		var sb strings.Builder
		for i, cell := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if i < len(r)-1 {
				sb.WriteString(strings.Repeat(" ", width[i]-len(cell)))
			}
		}
		fmt.Println(sb.String())
	}
}
