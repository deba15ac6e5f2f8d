package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/synth"
)

// tiny is the scale the tests run: two small profiles, two cheap
// experiments, one set-up and one cold round.
var tiny = scale{
	names:       []string{"compress", "li"},
	experiments: []string{"table1", "table3"},
	setups:      1,
	candidates:  2,
	coldRounds:  1,
	reps:        1,
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workload `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []metric   `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// runTiny runs the command at the tiny scale and returns its output, its
// parsed last line and its exit status.
func runTiny(t *testing.T, args ...string) (string, result, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, tiny, &stdout, &stderr)
	if code != 0 {
		return stdout.String(), result{}, code
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v\nstderr: %s", lines[len(lines)-1], err, stderr.String())
	}
	if stderr.Len() > 0 {
		t.Logf("stderr: %s", stderr.String())
	}
	return stdout.String(), res, code
}

// TestSmoke runs every workload untraced and traced at the tiny scale and
// checks that every metric BENCHMARK.json lists is printed with its unit.
func TestSmoke(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			dir := t.TempDir()
			out, res, code := runTiny(t, "--workload", w.Name, "--seed", "1", "--seconds", "0", "--trace", traced, "--tracedir", dir)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", w.Name, traced, code, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := bj.EndToEnd
			if traced == "1" {
				defs = bj.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%s: metric %s = %+v, want unit %s", w.Name, traced, d.Name, m, d.Unit)
				}
				if !regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(d.Name) + ` \S+ ` + regexp.QuoteMeta(d.Unit) + ` n=\d+$`).MatchString(out) {
					t.Errorf("%s trace=%s: no printed line for %s", w.Name, traced, d.Name)
				}
			}
			if traced == "0" {
				for _, d := range defs {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, res.Metrics[d.Name].Value)
					}
				}
				continue
			}
			for _, f := range []string{w.Name + ".trace.json", w.Name + ".layers.json"} {
				if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
					t.Errorf("%s: %v", w.Name, err)
				}
			}
			if u := res.Metrics["trace.unattributed_frac"].Value; w.Name != "reproduce" && (u < 0 || u > 0.10) {
				t.Errorf("%s: trace.unattributed_frac = %v, want within [0, 0.10]", w.Name, u)
			}
			if c := res.Metrics["machine.fast_coverage"].Value; w.Name == "execute" && c != 1 {
				t.Errorf("execute: machine.fast_coverage = %v, want 1", c)
			}
		}
	}
}

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the command's
// own tables in step and within the limits the file must respect.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if !slices.Equal(bj.Paths, []string{"cmd/ccbench"}) || !slices.Equal(bj.Command, []string{"bash", "cmd/ccbench/run.sh"}) {
		t.Errorf("command %q, paths %q", bj.Command, bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, command %q %q", i, bj.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, table := range []struct {
		name       string
		file, want []metric
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer()}} {
		for i := 0; i < max(len(table.file), len(table.want)); i++ {
			var got, want metric
			if i < len(table.file) {
				got = table.file[i]
			}
			if i < len(table.want) {
				want = table.want[i]
			}
			if got != want {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the command %+v", table.name, i, got, want)
				break
			}
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer()) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer()))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloads {
		seen[w.Name] = true
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer()...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("bad or repeated metric %+v", m)
		}
		seen[m.Name] = true
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if endToEnd[0] != (metric{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}) {
		t.Errorf("setup_s must come first with the largest bound: %+v", endToEnd[0])
	}
}

// TestSeeds checks the seed contract: seed 0 is the paper's corpus, other
// seeds give distinct programs whose compressed images behave exactly like
// them, and the seed appears in the output.
func TestSeeds(t *testing.T) {
	byseed := map[int64][][]uint32{}
	for _, seed := range []int64{0, 1, 2} {
		e := &env{seed: seed, scale: full}
		progs, err := programs(e, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range progs {
			byseed[seed] = append(byseed[seed], p.Text)
			if seed == 0 {
				want, err := synth.Generate(full.names[i])
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(p.Text, want.Text) {
					t.Errorf("seed 0 %s differs from the paper's corpus", p.Name)
				}
				continue
			}
			// references runs both forms and fails on any difference.
			if _, _, err := references(e, progs[i:i+1]); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
	for i := range full.names {
		a, b, c := byseed[0][i], byseed[1][i], byseed[2][i]
		if slices.Equal(a, b) || slices.Equal(b, c) || slices.Equal(a, c) {
			t.Errorf("%s: seeds 0, 1 and 2 do not give three distinct programs", full.names[i])
		}
	}
	out, _, code := runTiny(t, "--workload", "fleet", "--seed", "7", "--seconds", "0", "--trace", "0")
	if code != 0 || !strings.Contains(out, "seed 7") {
		t.Errorf("exit %d, output does not name seed 7:\n%s", code, out)
	}
}

// TestFailedCheckIsCounted corrupts one reference or input per workload
// and checks that the run still completes, counting the failures.
func TestFailedCheckIsCounted(t *testing.T) {
	const branchOutOfText = 0x4BFFFFF0 // b -16 at word 0: dictionary analysis rejects it
	corrupt := map[string]func(inputs){
		"reproduce": func(b inputs) { b.(*reproduce).want["table1"] += "x" },
		"compress":  func(b inputs) { b.(*compress).progs[0].Text[0] = branchOutOfText },
		"fleet":     func(b inputs) { b.(*fleet).progs[1].Text[0] = branchOutOfText },
		"execute":   func(b inputs) { b.(*execute).guests[0].out = append(b.(*execute).guests[0].out, 'x') },
		"icache":    func(b inputs) { b.(*icache).probes[0].misses++ },
	}
	for _, w := range workloads {
		orig := w.setup
		w.setup = func(e *env) (inputs, error) {
			b, err := orig(e)
			if err == nil {
				corrupt[w.Name](b)
			}
			return b, err
		}
		res, err := measure(options{workload: w, seed: 1, scale: tiny, log: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.failed == 0 || res.failed > res.attempted {
			t.Errorf("%s: %d of %d ops failed, want a failure counted", w.Name, res.failed, res.attempted)
		}
	}
}

// TestScaled checks that a time taken while the yardstick ran at its
// reference speed is unchanged, and one taken at half that speed halves.
func TestScaled(t *testing.T) {
	const d = 10 * time.Millisecond
	if got := scaled(d, refYardstick, refYardstick); got != d {
		t.Errorf("at reference speed: %v, want %v", got, d)
	}
	if got := scaled(d, 2*refYardstick, 2*refYardstick); got != d/2 {
		t.Errorf("at half speed: %v, want %v", got, d/2)
	}
	if got := scaled(d, refYardstick, 3*refYardstick); got != d/2 {
		t.Errorf("slowing down across the interval: %v, want %v", got, d/2)
	}
}
