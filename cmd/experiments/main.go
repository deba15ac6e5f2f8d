// Command experiments regenerates every table and figure of the paper's
// evaluation (plus the extension experiments) as text tables.
//
// Usage:
//
//	experiments                  # run everything, paper order
//	experiments -run fig5,fig6   # run selected experiments
//	experiments -parallel 8      # bound the worker pool (default GOMAXPROCS)
//	experiments -json            # machine-readable report with per-phase stats
//	experiments -timeout 2m      # cancel the run after a deadline
//	experiments -list            # list experiment ids
//	experiments -bundle dir/     # run bundles: the whole run plus every bench × codec
//
// Output is deterministic at every -parallel setting. The process exits
// non-zero if any experiment fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
)

// jsonExperiment is one experiment in the -json report.
type jsonExperiment struct {
	ID      string         `json:"id"`
	Title   string         `json:"title"`
	Columns []string       `json:"columns,omitempty"`
	Rows    [][]string     `json:"rows,omitempty"`
	Note    string         `json:"note,omitempty"`
	Error   string         `json:"error,omitempty"`
	WallMS  float64        `json:"wall_ms"`
	Stats   stats.Snapshot `json:"stats"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Parallel    int              `json:"parallel"`
	Experiments []jsonExperiment `json:"experiments"`
	Totals      stats.Snapshot   `json:"totals"`
	WallMS      float64          `json:"wall_ms"`
}

func main() {
	runIDs := flag.String("run", "", "comma-separated experiment ids (default: all, paper order)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	jsonOut := flag.Bool("json", false, "emit a machine-readable JSON report (tables + per-phase stats)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "bound on concurrently executing work (runners and their rows); 1 = sequential")
	timeout := flag.Duration("timeout", 0, "cancel the run after this duration (0 = no deadline)")
	showStats := flag.Bool("stats", false, "print each experiment's counter/phase summary after its table")
	bundleDir := flag.String("bundle", "", "write run bundles into this directory: experiments/ holding the whole run's stats and trace, plus one <bench>.<codec>/ per benchmark and registered codec (dictionary codecs under the paper's entry-length bound)")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		fmt.Printf("\nencodings (codec registry): %s\n", strings.Join(bench.AuditEncodings, ", "))
		return
	}

	var ids []string
	if *runIDs != "" {
		for _, id := range strings.Split(*runIDs, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	totals := stats.New()
	// With -bundle, the collector owns the run's tracer and, once the run
	// is over, its totals; both land in the experiments/ bundle.
	var col *obs.Collector
	if *bundleDir != "" {
		col = obs.NewCollector(obs.Identity{
			Bench:     "experiments",
			Timestamp: time.Now().UTC().Format(time.RFC3339),
		})
	}
	corpus := bench.NewCorpus()
	engine := bench.NewEngine(corpus, bench.EngineOptions{
		Parallel: *parallel,
		Recorder: totals,
		Tracer:   col.Tracer(),
	})
	t0 := time.Now()
	results, runErr := engine.RunIDs(ctx, ids)
	wall := time.Since(t0)
	if *bundleDir != "" && runErr == nil {
		col.Recorder().Merge(totals.Snapshot())
		if err := col.Write(filepath.Join(*bundleDir, "experiments")); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: run bundle: %v\n", err)
			os.Exit(1)
		}
		ts := time.Now().UTC().Format(time.RFC3339)
		if err := bench.WriteBundles(corpus, *bundleDir, core.Options{MaxEntryLen: 4}, ts); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bundles: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote run bundles to %s\n", *bundleDir)
	}
	if results == nil { // id resolution failed before anything ran
		fmt.Fprintf(os.Stderr, "experiments: %v; use -list\n", runErr)
		os.Exit(2)
	}

	if *jsonOut {
		emitJSON(results, totals.Snapshot(), *parallel, wall)
	} else {
		emitText(results, *csv, *showStats)
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", runErr)
		os.Exit(1)
	}
}

func emitText(results []bench.Result, csv, showStats bool) {
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", r.ID, r.Err)
			continue
		}
		if csv {
			fmt.Printf("# == %s: %s ==\n%s\n", r.Table.ID, r.Table.Title, r.Table.RenderCSV())
			continue
		}
		fmt.Print(r.Table.Render())
		fmt.Printf("(%s in %v)\n", r.ID, r.Wall.Round(time.Millisecond))
		if showStats {
			if s := r.Stats.Summary(); s != "" {
				fmt.Printf("  stats: %s\n", s)
			}
		}
		fmt.Println()
	}
}

func emitJSON(results []bench.Result, totals stats.Snapshot, parallel int, wall time.Duration) {
	report := jsonReport{
		Parallel: parallel,
		Totals:   totals,
		WallMS:   float64(wall.Microseconds()) / 1e3,
	}
	for _, r := range results {
		je := jsonExperiment{
			ID:     r.ID,
			Title:  r.Title,
			WallMS: float64(r.Wall.Microseconds()) / 1e3,
			Stats:  r.Stats,
		}
		if r.Err != nil {
			je.Error = r.Err.Error()
		}
		if r.Table != nil {
			je.Columns = r.Table.Columns
			je.Rows = r.Table.Rows
			je.Note = r.Table.Note
		}
		report.Experiments = append(report.Experiments, je)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
