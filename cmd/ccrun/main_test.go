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

// TestBundleStaysFused runs the same image into bundles with and without
// -cache. The guest profiler reads the fetch journal, so each run stays on
// the fused loop: coverage 1 and no hook_attached bail. A -trace run of
// each takes the Step path instead, and its deliveries must yield the same
// guest profile, folded stacks, heat map and cache counters.
func TestBundleStaysFused(t *testing.T) {
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
		if b.Profile == nil || b.Guest == nil || b.GuestFolded == "" {
			t.Fatalf("ccrun %v: bundle lacks a profile, guest or folded section", args)
		}
		return b
	}
	for _, cached := range [][]string{nil, {"-cache", "1024"}} {
		fused := open(fmt.Sprint("fused", len(cached)), cached...)
		stepped := open(fmt.Sprint("stepped", len(cached)), append([]string{"-trace", "1"}, cached...)...)
		if fused.Identity.Bench != "compress" || fused.Identity.Codec != "nibble" || fused.Identity.Method != 2 {
			t.Errorf("bundle identity = %+v", fused.Identity)
		}
		st := fused.Stats
		if fast, steps := st.Counter("machine.fastpath.steps"), st.Counter("machine.steps"); fast != steps || steps == 0 {
			t.Errorf("ccrun %v: %d of %d steps on the fast path, want all", cached, fast, steps)
		}
		if n := st.Counter("machine.fastpath.bail.hook_attached"); n != 0 {
			t.Errorf("ccrun %v: bail.hook_attached %d", cached, n)
		}
		if n := stepped.Stats.Counter("machine.fastpath.bail.hook_attached"); n != 1 {
			t.Errorf("ccrun -trace %v: bail.hook_attached %d, want the Step path", cached, n)
		}
		if len(fused.Profile.HotEntries) == 0 {
			t.Fatal("fused bundle has no hot entries")
		}
		if !reflect.DeepEqual(fused.Guest, stepped.Guest) {
			t.Errorf("ccrun %v: guest profiles differ:\n fused %+v\n Step  %+v", cached, fused.Guest, stepped.Guest)
		}
		if fused.GuestFolded != stepped.GuestFolded {
			t.Errorf("ccrun %v: folded stacks differ:\n%s\nStep path:\n%s", cached, fused.GuestFolded, stepped.GuestFolded)
		}
		if !reflect.DeepEqual(fused.Profile, stepped.Profile) {
			t.Errorf("ccrun %v: execution profiles differ:\n fused %+v\n Step  %+v", cached, fused.Profile, stepped.Profile)
		}
		for _, name := range []string{"cache.accesses", "cache.hits", "cache.misses"} {
			if f, s := st.Counter(name), stepped.Stats.Counter(name); f != s {
				t.Errorf("%s: fused %d, Step path %d", name, f, s)
			}
		}
		if cached != nil && fused.Guest.Total.CacheMisses == 0 {
			t.Error("cached run attributed no cache misses")
		}
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
// without -cache and -trace.
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
			// The reference run: the same image on the fused loop, which the
			// bundle's journal-fed profiler leaves it on.
			cpu, err := ex.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
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
			{"-trace", "3"},
			{"-trace", "3", "-cache", "1024"},
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
