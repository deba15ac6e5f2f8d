package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// inputs is one workload set up: its prepared inputs and the ops over them.
type inputs interface {
	// pass runs the workload's fixed list of ops once, checking every
	// output and counting failures on m.
	pass(m *meter)
	// work is the instruction words one pass processes: words compressed,
	// or guest instructions executed.
	work() int64
	// ratio is the geometric mean of compressed/original size (Eq. 1)
	// over the workload's images, valid after one pass.
	ratio() float64
}

// tracedExtras is implemented by workloads that add per-layer numbers of
// their own after the traced passes.
type tracedExtras interface {
	extras(rep report)
}

// env is what a workload's set-up receives. span, stats and tally are nil
// in an untraced run, so set-up code passes them on without checking.
type env struct {
	seed  int64
	scale scale
	span  *trace.Span
	stats *stats.Recorder
	tally *tally
}

// meter is handed to every pass: it counts ops and failures and carries
// the tracing hooks, which are nil in an untraced pass.
type meter struct {
	tr        *trace.Tracer
	pass      *trace.Span
	stats     *stats.Recorder
	tally     *tally
	attempted int
	failed    int
	log       io.Writer

	ys       *yardstick
	yard     []float64     // every yardstick time of the run, ms
	last     time.Duration // the latest of them
	segStart time.Time     // start of the pass's open segment
	elapsed  time.Duration // the pass's closed segments at reference speed
}

// cutEvery is the shortest segment an untraced pass is cut into: between
// two ops, once a segment is this long, a yardstick run ends it, so a pass
// of several seconds follows a change in the host's speed within it.
// Traced passes are not cut, so their spans hold no yardstick time.
const cutEvery = 250 * time.Millisecond

// yardstick times one yardstick run and keeps it for the report.
func (m *meter) yardstick() time.Duration {
	m.last = m.ys.time()
	m.yard = append(m.yard, float64(m.last)/float64(time.Millisecond))
	return m.last
}

// startPass starts timing a pass; a yardstick run has just ended.
func (m *meter) startPass() {
	m.elapsed = 0
	m.segStart = time.Now()
}

// cut ends the open segment with a yardstick run, adds it to the pass at
// the reference speed, and opens the next.
func (m *meter) cut() {
	d := time.Since(m.segStart)
	before := m.last
	m.elapsed += scaled(d, before, m.yardstick())
	m.segStart = time.Now()
}

// endPass ends timing a pass and returns its time at the reference speed.
func (m *meter) endPass() time.Duration {
	m.cut()
	return m.elapsed
}

// tally is a traced run's own counts. The stats recorder receives what
// the library's hooks report, plus machine and cache counters under the
// names CPU.Record and cache.Report use; everything only this benchmark
// counts goes here. Every method is a no-op on a nil tally.
type tally struct {
	steps       map[string]int64 // guest steps by run class
	images      int64            // image frames written
	imageBytes  int64
	experiments map[string][]time.Duration // Result.Wall by experiment id
}

func newTally() *tally {
	return &tally{steps: map[string]int64{}, experiments: map[string][]time.Duration{}}
}

func (t *tally) addSteps(class string, n int64) {
	if t != nil {
		t.steps[class] += n
	}
}

func (t *tally) addImage(bytes int) {
	if t != nil {
		t.images++
		t.imageBytes += int64(bytes)
	}
}

func (t *tally) addExperiment(id string, wall time.Duration) {
	if t != nil {
		t.experiments[id] = append(t.experiments[id], wall)
	}
}

// op counts one attempted op and opens its span. In an untraced pass
// (no pass span) it first cuts the segment if it is long enough.
func (m *meter) op() *trace.Span {
	m.attempted++
	if m.pass == nil && time.Since(m.segStart) >= cutEvery {
		m.cut()
	}
	return m.pass.Child("op")
}

// fail counts a failed op; the first few are logged to stderr.
func (m *meter) fail(format string, args ...any) {
	m.failed++
	if m.failed <= 5 {
		fmt.Fprintf(m.log, "ccbench: failed op: "+format+"\n", args...)
	}
}

// options is one invocation of the benchmark.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	scale    scale
	log      io.Writer
}

// outcome is what a run prints.
type outcome struct {
	attempted, failed int
	metrics           report
	yardstick         value // median raw yardstick time, ms
}

// measure runs scale.setups rounds. Each round sets the workload up from
// scratch and then runs passes for its share of the time budget, so the
// pass timings mix several heap layouts rather than depending on one.
// Set-ups and passes are timed between two yardstick runs and reported at
// the yardstick's reference speed (see yardstick.go). An untraced run
// reports the end-to-end metrics. In a traced run each round spends half
// its share untraced and half with spans around every layer call, and the
// run reports the per-layer metrics. Only a set-up failure is an error;
// failed ops are counted.
func measure(o options) (outcome, error) {
	var tc *tracing
	var rec *stats.Recorder
	var tl *tally
	if o.trace {
		rec, tl = stats.New(), newTally()
		tc = &tracing{export: trace.New(), rec: rec, tally: tl, agg: newLayers()}
	}
	m := &meter{log: o.log, ys: newYardstick()}
	share := o.seconds / float64(o.scale.setups)
	var b inputs
	var setups, plain, traced []float64
	var plainOps int
	var allocBytes, gcs uint64
	for i := 0; i < o.scale.setups; i++ {
		b = nil // let the previous round's inputs go before setting up again
		runtime.GC()
		var tr *trace.Tracer
		if tc != nil {
			tr = tc.export
			if i > 0 {
				tr = trace.New()
			}
		}
		y0 := m.yardstick()
		sp := tr.Root("setup")
		t0 := time.Now()
		nb, err := o.workload.setup(&env{seed: o.seed, scale: o.scale, span: sp, stats: rec, tally: tl})
		d := time.Since(t0)
		sp.End()
		if err != nil {
			return outcome{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		if tc != nil && tr != tc.export {
			tc.agg.add(tr.Spans())
		}
		setups = append(setups, scaled(d, y0, m.yardstick()).Seconds())
		b = nb
		runtime.GC()

		if tc == nil {
			plain = append(plain, loop(b, m, share, nil)...)
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ops := m.attempted
		plain = append(plain, loop(b, m, share/2, nil)...)
		runtime.ReadMemStats(&after)
		plainOps += m.attempted - ops
		// The yardstick allocates nothing, so these are the passes' own.
		allocBytes += after.TotalAlloc - before.TotalAlloc
		gcs += uint64(after.NumGC - before.NumGC)
		runtime.GC()
		traced = append(traced, loop(b, m, share/2, tc)...)
	}

	yard := value{median(m.yard), len(m.yard)}
	if tc == nil {
		rep := report{
			"setup_s":       {median(setups), len(setups)},
			"ns_per_insn":   {median(plain), len(plain)},
			"ratio_geomean": {b.ratio(), 1},
			"peak_rss_mb":   {peakRSSMB(), 1},
		}
		return outcome{m.attempted, m.failed, rep, yard}, nil
	}

	tc.agg.add(tc.export.Spans())
	rep := tc.agg.metrics(rec.Snapshot(), tl)
	rep["runtime.alloc_mb_per_op"] = value{div(float64(allocBytes)/1e6, float64(plainOps)), plainOps}
	rep["runtime.gc_per_op"] = value{div(float64(gcs), float64(plainOps)), plainOps}
	rep["trace.overhead_frac"] = value{div(median(traced), median(plain)) - 1, len(traced)}
	rep["bench.yardstick_ms"] = yard
	if x, ok := b.(tracedExtras); ok {
		x.extras(rep)
	}
	if err := tc.write(o.traceDir, o.workload.Name, rep); err != nil {
		return outcome{}, err
	}
	return outcome{m.attempted, m.failed, rep, yard}, nil
}

// tracing carries a traced run's sinks. The export tracer holds the first
// set-up and the first traced pass, which are written as the Chrome trace
// and folded into agg at the end; every other set-up and pass gets a fresh
// tracer, folded into agg right away and dropped, so memory stays bounded.
type tracing struct {
	export       *trace.Tracer
	exportedPass bool
	rec          *stats.Recorder
	tally        *tally
	agg          *layers
}

// loop runs passes until the next one would overrun the budget, always at
// least one, and returns each pass's wall time per instruction word at the
// yardstick's reference speed. With tc set, every pass is traced.
func loop(b inputs, m *meter, seconds float64, tc *tracing) []float64 {
	budget := time.Duration(seconds * float64(time.Second))
	work := float64(b.work())
	var out []float64
	var longest time.Duration
	start := time.Now()
	m.yardstick()
	for len(out) == 0 || time.Since(start)+longest <= budget {
		var tr *trace.Tracer
		if tc != nil {
			tr = trace.New()
			if !tc.exportedPass {
				tr, tc.exportedPass = tc.export, true
			}
			m.tr, m.pass, m.stats, m.tally = tr, tr.Root("pass"), tc.rec, tc.tally
		}
		t0 := time.Now()
		m.startPass()
		b.pass(m)
		m.pass.End()
		d := m.endPass()
		if tc != nil && tr != tc.export {
			tc.agg.add(tr.Spans())
		}
		if t := time.Since(t0); t > longest {
			longest = t
		}
		out = append(out, float64(d.Nanoseconds())/work)
	}
	m.tr, m.pass, m.stats, m.tally = nil, nil, nil, nil
	return out
}

// write saves the Chrome trace and the per-layer numbers as
// DIR/<workload>.trace.json and DIR/<workload>.layers.json.
func (tc *tracing) write(dir, name string, rep report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = tc.export.WriteChrome(bw)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	layers := make(map[string]float64, len(rep))
	for k, v := range rep {
		layers[k] = v.v
	}
	return writeJSON(filepath.Join(dir, name+".layers.json"), layers)
}

// peakRSSMB reads the process's peak resident set (VmHWM) from
// /proc/self/status. Where that file does not exist it falls back to the
// memory the Go runtime obtained from the OS.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}
