package obs

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/sizeaudit"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// testBundleNew is the "after" side for diff tests: same shape as
// testBundle with moved numbers, a function and a bail reason only it
// has, and cache counters the old side lacks.
func testBundleNew() *Bundle {
	rec := stats.New()
	rec.Add("machine.steps", 1400)
	rec.Add("machine.expanded", 90)
	rec.Add("machine.mem_fetches", 1200)
	rec.Add("machine.fetched_bytes", 2100)
	rec.Add("machine.fastpath.steps", 1390)
	rec.Add("machine.fastpath.slow_steps", 10)
	rec.Add("machine.fastpath.bail.budget", 3)
	rec.Add("machine.fastpath.bail.exit", 1)
	rec.Add("machine.fastpath.bail.hook_attached", 0)
	rec.Add("cache.accesses", 1500)
	rec.Add("cache.hits", 1400)
	rec.Add("cache.misses", 100)
	rec.Observe("core.patch", 3)
	snap := rec.Snapshot()

	em := sizeaudit.NewEmitter([]sizeaudit.Func{
		{Name: "main", Start: 0},
		{Name: "helper", Start: 64},
	}, 128)
	em.AtWord(sizeaudit.Codeword, 0, 20)
	em.AtWord(sizeaudit.Raw, 1, 64)
	em.Global(sizeaudit.Table, sizeaudit.LATRow, 40)
	em.Global(sizeaudit.Header, sizeaudit.HeaderRow, 36)
	audit := em.Finish("demo", "ccrp", 20, 128)

	return &Bundle{
		Identity: Identity{
			Bench:     "demo",
			Codec:     "ccrp",
			Method:    4,
			GoVersion: "go1.24.0",
			Timestamp: "2026-08-08T01:00:00Z",
		},
		Stats:   &snap,
		Profile: &core.RunProfile{},
		Guest: &guestprof.Profile{
			Name:  "demo",
			Total: guestprof.Counts{Cycles: 1400, FetchBytes: 2100},
			Funcs: []guestprof.FuncProfile{
				{Name: "main", Flat: guestprof.Counts{Cycles: 900, FetchBytes: 1500},
					Cum: guestprof.Counts{Cycles: 1400, FetchBytes: 2100}},
				{Name: "helper2", Flat: guestprof.Counts{Cycles: 500, FetchBytes: 600},
					Cum: guestprof.Counts{Cycles: 500, FetchBytes: 600}},
			},
		},
		Audit: audit,
	}
}

func checkGolden(t *testing.T, name string, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs -update` to create goldens)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden; rerun with -update if intended\n got: %q\nwant: %q",
			name, got, string(want))
	}
}

func TestBundleReportGolden(t *testing.T) {
	r := BundleReport(testBundle())
	var html, text strings.Builder
	if err := r.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "bundle.html", html.String())
	checkGolden(t, "bundle.txt", text.String())
}

func TestDiffReportGolden(t *testing.T) {
	d := NewDiff(testBundle(), testBundleNew())
	r := DiffReport(d)
	var html, text strings.Builder
	if err := r.WriteHTML(&html); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "diff.html", html.String())
	checkGolden(t, "diff.txt", text.String())
}

func TestDiffSemantics(t *testing.T) {
	old, new := testBundle(), testBundleNew()
	d := NewDiff(old, new)

	if d.Size == nil || d.Size.OldBytes != int64(old.Audit.TotalBytes) || d.Size.NewBytes != 20 {
		t.Fatalf("size delta = %+v", d.Size)
	}

	// Metrics: only names on both sides get deltas; one-sided names are
	// listed, not silently dropped.
	byMetric := map[string]bool{}
	for _, m := range d.Metrics {
		byMetric[m.Metric] = true
	}
	if !byMetric["machine.steps"] || !byMetric["machine.expanded"] {
		t.Errorf("shared counters missing from metric deltas: %v", d.Metrics)
	}
	foundNewOnly := false
	for _, n := range d.MetricsNewOnly {
		if n == "cache.accesses" {
			foundNewOnly = true
		}
	}
	if !foundNewOnly {
		t.Errorf("cache.accesses should be new-only, got %v", d.MetricsNewOnly)
	}
	foundOldOnly := false
	for _, n := range d.MetricsOldOnly {
		if n == "core.encode.ms" {
			foundOldOnly = true
		}
	}
	if !foundOldOnly {
		t.Errorf("core.encode.ms should be old-only, got %v", d.MetricsOldOnly)
	}

	// Guest functions: union of both sides, absent side counted zero,
	// ordered by |delta cycles| descending.
	funcs := map[string]FuncDelta{}
	for _, f := range d.Funcs {
		funcs[f.Name] = f
	}
	if f := funcs["helper"]; f.OldCycles != 300 || f.NewCycles != 0 {
		t.Errorf("helper delta = %+v", f)
	}
	if f := funcs["helper2"]; f.OldCycles != 0 || f.NewCycles != 500 {
		t.Errorf("helper2 delta = %+v", f)
	}
	for i := 1; i < len(d.Funcs); i++ {
		di := abs64(d.Funcs[i-1].NewCycles - d.Funcs[i-1].OldCycles)
		dj := abs64(d.Funcs[i].NewCycles - d.Funcs[i].OldCycles)
		if di < dj {
			t.Errorf("func deltas not ordered by |delta|: %v before %v", d.Funcs[i-1], d.Funcs[i])
		}
	}

	// Steps, coverage and bails come from the stats counters: every
	// reason non-zero on either side is a row, the others are not.
	r := DiffReport(d)
	kv := map[string]string{}
	for _, p := range r.KV {
		kv[p[0]] = p[1]
	}
	if kv["steps"] != "1000 -> 1400 (+400)" || kv["fastpath coverage"] != "0.9000 -> 0.9929" {
		t.Errorf("steps %q, fastpath coverage %q", kv["steps"], kv["fastpath coverage"])
	}
	bails := map[string][2]string{}
	for _, tb := range r.Tables {
		if tb.Title == "Fast-path bails" {
			for _, row := range tb.Rows {
				bails[row[0]] = [2]string{row[1], row[2]}
			}
		}
	}
	want := map[string][2]string{"budget": {"0", "3"}, "exit": {"1", "1"}, "hook_attached": {"2", "0"}}
	if !reflect.DeepEqual(bails, want) {
		t.Errorf("bail rows = %v, want %v", bails, want)
	}

	// Classes: every provenance class with bits on either side appears.
	classes := map[string][2]int64{}
	for _, cl := range d.Classes {
		classes[cl.Class] = [2]int64{cl.OldBits, cl.NewBits}
	}
	if got := classes["dictionary"]; got[0] == 0 || got[1] != 0 {
		t.Errorf("dictionary class delta = %v", got)
	}
	if got := classes["table"]; got[0] != 0 || got[1] != 40 {
		t.Errorf("table class delta = %v", got)
	}
}
