package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/codec"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/machine"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/synth"
)

// buildCCRun compiles the ccrun binary once per test run.
func buildCCRun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ccrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ccrun: %v\n%s", err, out)
	}
	return bin
}

// writeImage compresses a synth benchmark under the nibble scheme and
// serializes it as a .ppz fixture.
func writeImage(t *testing.T, dir, bench string) string {
	t.Helper()
	p, err := synth.Generate(bench)
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, bench+".ppz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := objfile.WriteImage(f, img); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceLines pins -trace: exactly N disassembled lines, one per
// executed instruction, ahead of the run summary.
func TestTraceLines(t *testing.T) {
	bin := buildCCRun(t)
	ppz := writeImage(t, t.TempDir(), "compress")
	cmd := exec.Command(bin, "-trace", "5", ppz)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ccrun -trace: %v\n%s", err, stderr.String())
	}
	traced := regexp.MustCompile(`(?m)^  [0-9a-f]{8}: \S`).FindAllString(stderr.String(), -1)
	if len(traced) != 5 {
		t.Errorf("-trace 5 printed %d instruction lines:\n%s", len(traced), stderr.String())
	}
}

// TestSampledBundleMatchesExact runs the same image into an exact bundle
// and a -sampledprof bundle. The run never leaves the fast path, so the
// sampled profiler sees every step: the heat map and the flat per-function
// counts must agree exactly.
func TestSampledBundleMatchesExact(t *testing.T) {
	bin := buildCCRun(t)
	dir := t.TempDir()
	ppz := writeImage(t, dir, "compress")
	open := func(name string, args ...string) *obs.Bundle {
		t.Helper()
		bdir := filepath.Join(dir, name)
		args = append(args, "-bundle", bdir, ppz)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("ccrun %v: %v\n%s", args, err, out)
		}
		b, err := obs.Open(bdir)
		if err != nil {
			t.Fatal(err)
		}
		if b.Profile == nil || b.Guest == nil {
			t.Fatalf("ccrun %v: bundle lacks profile or guest section", args)
		}
		return b
	}
	exact, sampled := open("exact"), open("sampled", "-sampledprof")
	if exact.Identity.Bench != "compress" || exact.Identity.Codec != "nibble" || exact.Identity.Method != 2 {
		t.Errorf("bundle identity = %+v", exact.Identity)
	}
	if exact.GuestFolded == "" || sampled.GuestFolded != "" {
		t.Errorf("folded stacks: exact %d bytes, sampled %d bytes; want exact only",
			len(exact.GuestFolded), len(sampled.GuestFolded))
	}
	if fast, steps := sampled.Stats.Counter("machine.fastpath.steps"), sampled.Stats.Counter("machine.steps"); fast != steps || steps == 0 {
		t.Fatalf("sampled run: %d of %d steps on the fast path, want all", fast, steps)
	}
	if len(exact.Profile.HotEntries) == 0 {
		t.Fatal("exact bundle has no hot entries")
	}
	if !reflect.DeepEqual(sampled.Profile.HotEntries, exact.Profile.HotEntries) {
		t.Errorf("hot_entries differ:\n sampled %+v\n   exact %+v", sampled.Profile.HotEntries, exact.Profile.HotEntries)
	}
	flat := func(p *guestprof.Profile) map[string]guestprof.Counts {
		m := map[string]guestprof.Counts{}
		for _, f := range p.Funcs {
			if f.Flat != (guestprof.Counts{}) {
				m[f.Name] = f.Flat
			}
		}
		return m
	}
	if got, want := flat(sampled.Guest), flat(exact.Guest); !reflect.DeepEqual(got, want) {
		t.Errorf("flat guest counts differ:\n sampled %+v\n   exact %+v", got, want)
	}
}

// TestSampledProfRejects pins the combinations -sampledprof refuses: the
// per-step hook that would force the instrumented path, and running
// without a bundle to fill. -cache is accepted: the fetch journal keeps the
// cached run fused, and its cache counters and miss curve equal the exact
// bundle's.
func TestSampledProfRejects(t *testing.T) {
	bin := buildCCRun(t)
	dir := t.TempDir()
	ppz := writeImage(t, dir, "compress")
	cached := func(name string, args ...string) *obs.Bundle {
		t.Helper()
		bdir := filepath.Join(dir, name)
		args = append(args, "-cache", "1024", "-bundle", bdir, ppz)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("ccrun %v: %v\n%s", args, err, out)
		}
		b, err := obs.Open(bdir)
		if err != nil {
			t.Fatal(err)
		}
		if b.Profile == nil {
			t.Fatalf("ccrun %v: bundle lacks a profile section", args)
		}
		return b
	}
	exact, sampled := cached("exact"), cached("sampled", "-sampledprof")
	if fast, steps := sampled.Stats.Counter("machine.fastpath.steps"), sampled.Stats.Counter("machine.steps"); fast != steps || steps == 0 {
		t.Errorf("sampled cached run: %d of %d steps on the fast path, want all", fast, steps)
	}
	if exact.Stats.Counter("cache.accesses") == 0 || exact.Stats.Counter("cache.misses") == 0 {
		t.Errorf("exact bundle has no cache counters: %+v", exact.Stats.Counters)
	}
	for _, name := range []string{"cache.accesses", "cache.hits", "cache.misses"} {
		if s, e := sampled.Stats.Counter(name), exact.Stats.Counter(name); s != e {
			t.Errorf("%s: sampled %d, exact %d", name, s, e)
		}
	}
	if !reflect.DeepEqual(sampled.Profile.MissCurve, exact.Profile.MissCurve) {
		t.Errorf("miss curves differ:\n sampled %+v\n   exact %+v", sampled.Profile.MissCurve, exact.Profile.MissCurve)
	}

	bdir := filepath.Join(dir, "bundle")
	for _, args := range [][]string{
		{"-sampledprof", "-trace", "3", "-bundle", bdir},
		{"-sampledprof"},
	} {
		out, err := exec.Command(bin, append(args, ppz)...).CombinedOutput()
		if err == nil {
			t.Errorf("ccrun %v succeeded, want a non-zero exit:\n%s", args, out)
		}
	}
	if _, err := os.Stat(bdir); !os.IsNotExist(err) {
		t.Errorf("a rejected run wrote %s", bdir)
	}
}

// TestBundleNativeProgram pins the .ppx path: bundles work for native runs
// too, with codec "native" and no audit section.
func TestBundleNativeProgram(t *testing.T) {
	bin := buildCCRun(t)
	dir := t.TempDir()
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	ppx := filepath.Join(dir, "compress.ppx")
	f, err := os.Create(ppx)
	if err != nil {
		t.Fatal(err)
	}
	if err := objfile.WriteProgram(f, p); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	bundleDir := filepath.Join(dir, "bundle")
	cmd := exec.Command(bin, "-bundle", bundleDir, ppx)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("ccrun -bundle on .ppx: %v\n%s", err, out)
	}
	b, err := obs.Open(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Identity.Codec != "native" || b.Identity.Bench != "compress" {
		t.Errorf("native bundle identity = %+v", b.Identity)
	}
	if b.Profile == nil || b.Guest == nil || b.GuestFolded == "" {
		t.Error("native bundle missing profile/guest sections")
	}
	if b.Audit != nil {
		t.Error("native bundle should carry no size audit")
	}
}

// TestBundleCountersLiveInStats pins where a bundle keeps each number.
// stats.json carries every counter of the run, equal to the CPU's and
// the cache's own totals; profile.json carries only what no counter can,
// the heat map and the miss curve. Both producers are covered:
// bench.CollectBundle for every executable codec, and ccrun with and
// without -cache and -sampledprof.
func TestBundleCountersLiveInStats(t *testing.T) {
	checkProfileKeys := func(t *testing.T, dir string) {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "profile.json"))
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(data, &keys); err != nil {
			t.Fatal(err)
		}
		for k := range keys {
			if k != "hot_entries" && k != "miss_curve" {
				t.Errorf("profile.json has key %q; only hot_entries and miss_curve belong there", k)
			}
		}
	}
	checkCounters := func(t *testing.T, dir string, want map[string]int64) {
		t.Helper()
		b, err := obs.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if b.Stats == nil {
			t.Fatal("bundle has no stats section")
		}
		for name, v := range want {
			if got, ok := b.Stats.Counters[name]; !ok || got != v {
				t.Errorf("stats.json %s = %d (present %v), run total %d", name, got, ok, v)
			}
		}
	}

	t.Run("collect", func(t *testing.T) {
		c := bench.NewCorpus()
		p, err := c.Program("compress")
		if err != nil {
			t.Fatal(err)
		}
		for _, cd := range codec.Codecs() {
			img, err := cd.Compress(p, codec.Options{MaxEntryLen: 4})
			if err != nil {
				t.Fatal(err)
			}
			ex, ok := img.(codec.Executable)
			if !ok {
				continue
			}
			// The reference run: the same image under a per-step hook, which
			// puts it on the path the bundle's exact profiler takes.
			cpu, err := ex.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			cpu.TraceStep = func(machine.StepInfo) {}
			if _, err := cpu.Run(200_000_000); err != nil {
				t.Fatal(err)
			}
			b, err := bench.CollectBundle(c, "compress", cd.Name(), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), cd.Name())
			if err := obs.Write(dir, b); err != nil {
				t.Fatal(err)
			}
			checkProfileKeys(t, dir)
			checkCounters(t, dir, machineCounters(cpu.Stats, cpu.Fast))
		}
	})

	t.Run("ccrun", func(t *testing.T) {
		bin := buildCCRun(t)
		dir := t.TempDir()
		ppz := writeImage(t, dir, "compress")
		for i, args := range [][]string{
			nil,
			{"-cache", "1024"},
			{"-sampledprof"},
			{"-sampledprof", "-cache", "1024"},
		} {
			bdir := filepath.Join(dir, fmt.Sprint("b", i))
			cmd := exec.Command(bin, append(args, "-bundle", bdir, ppz)...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("ccrun %v: %v\n%s", args, err, stderr.String())
			}
			checkProfileKeys(t, bdir)
			want := summaryCounters(t, stderr.String())
			if _, ok := want["cache.accesses"]; ok != (len(args) > 0 && args[len(args)-1] == "1024") {
				t.Fatalf("ccrun %v: cache summary present %v", args, ok)
			}
			checkCounters(t, bdir, want)
		}
	})
}

// machineCounters names a run's CPU totals as the stats counters a
// recorder attached to it receives.
func machineCounters(st machine.Stats, f machine.FastStats) map[string]int64 {
	m := map[string]int64{
		"machine.steps":               st.Steps,
		"machine.expanded":            st.Expanded,
		"machine.fetched_bytes":       st.FetchedBytes,
		"machine.mem_fetches":         st.MemFetches,
		"machine.fastpath.steps":      f.Steps,
		"machine.fastpath.slow_steps": st.Steps - f.Steps,
	}
	for r, n := range f.Bails {
		m["machine.fastpath.bail."+machine.BailReason(r).String()] = n
	}
	return m
}

// summaryCounters parses ccrun's run summary, which it prints straight
// from the CPU's and the cache's totals, into the counters stats.json must
// hold.
func summaryCounters(t *testing.T, summary string) map[string]int64 {
	t.Helper()
	var st machine.Stats
	var f machine.FastStats
	var accesses, misses int64
	haveCache := false
	for _, line := range strings.Split(summary, "\n") {
		var n, ignore int64
		switch {
		case strings.HasPrefix(line, "steps "):
			_, err := fmt.Sscanf(line, "steps %d, taken branches %d", &st.Steps, &ignore)
			mustScan(t, line, err)
		case strings.HasPrefix(line, "program-memory fetches "):
			_, err := fmt.Sscanf(line, "program-memory fetches %d (%d bytes), dictionary expansions %d",
				&st.MemFetches, &st.FetchedBytes, &st.Expanded)
			mustScan(t, line, err)
		case strings.HasPrefix(line, "fastpath: ") && strings.Contains(line, " bails: "):
			_, err := fmt.Sscanf(line, "fastpath: %d/%d", &f.Steps, &ignore)
			mustScan(t, line, err)
			_, bails, _ := strings.Cut(line, " bails: ")
			for _, pair := range strings.Fields(bails) {
				name, count, ok := strings.Cut(pair, "=")
				if !ok {
					continue // "none"
				}
				_, err := fmt.Sscan(count, &n)
				mustScan(t, line, err)
				for r := range f.Bails {
					if machine.BailReason(r).String() == name {
						f.Bails[r] = n
					}
				}
			}
		case strings.HasPrefix(line, "icache: "):
			_, err := fmt.Sscanf(line, "icache: %d accesses, %d misses", &accesses, &misses)
			mustScan(t, line, err)
			haveCache = true
		}
	}
	if st.Steps == 0 {
		t.Fatalf("no step count in the run summary:\n%s", summary)
	}
	m := machineCounters(st, f)
	if haveCache {
		m["cache.accesses"] = accesses
		m["cache.hits"] = accesses - misses
		m["cache.misses"] = misses
	}
	return m
}

func mustScan(t *testing.T, line string, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("run summary line %q: %v", line, err)
	}
}
