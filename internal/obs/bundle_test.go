package obs

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/sizeaudit"
	"repro/internal/stats"
)

// testBundle builds a small fully-populated bundle from hand-written
// sections: deterministic, no execution, exercises every section type.
func testBundle() *Bundle {
	rec := stats.New()
	rec.Add("machine.steps", 1000)
	rec.Add("machine.expanded", 120)
	rec.Add("machine.mem_fetches", 900)
	rec.Add("machine.fetched_bytes", 1800)
	rec.Add("machine.fastpath.steps", 900)
	rec.Add("machine.fastpath.slow_steps", 100)
	rec.Add("machine.fastpath.bail.budget", 0)
	rec.Add("machine.fastpath.bail.exit", 1)
	rec.Add("machine.fastpath.bail.hook_attached", 2)
	rec.Observe("core.encode", 1500*time.Microsecond)
	rec.Observe("core.patch", 2)
	rec.Observe("core.patch", 4)
	snap := rec.Snapshot()

	em := sizeaudit.NewEmitter([]sizeaudit.Func{
		{Name: "main", Start: 0},
		{Name: "helper", Start: 64},
	}, 128)
	em.AtWord(sizeaudit.Codeword, 0, 12)
	em.AtWord(sizeaudit.Raw, 1, 32)
	em.AtWord(sizeaudit.Codeword, 16, 16)
	em.Global(sizeaudit.Dict, sizeaudit.DictRow, 64)
	em.Global(sizeaudit.Header, sizeaudit.HeaderRow, 32)
	audit := em.Finish("demo", "nibble", 156/8+1, 128)

	return &Bundle{
		Identity: Identity{
			Bench:       "demo",
			Codec:       "nibble",
			Method:      2,
			OptionsHash: "00000000deadbeef",
			GoVersion:   "go1.24.0",
			Timestamp:   "2026-08-08T00:00:00Z",
		},
		Stats: &snap,
		Profile: &core.RunProfile{
			HotEntries: []core.EntryHeat{
				{Rank: 0, Count: 80, Len: 2, Uses: 7, Insns: []string{"mr r3,r30", "blr"}},
				{Rank: 3, Count: 40, Len: 1, Uses: 4, Insns: []string{"lis r11,32"}},
			},
			MissCurve: []cache.SamplePoint{{Access: 4096, Hits: 4000, Misses: 96}},
		},
		Guest: &guestprof.Profile{
			Name:  "demo",
			Total: guestprof.Counts{Cycles: 1000, FetchBytes: 1800, Expansions: 60, Expanded: 120},
			Funcs: []guestprof.FuncProfile{
				{Name: "main", Flat: guestprof.Counts{Cycles: 700, FetchBytes: 1300, Expansions: 40, Expanded: 80},
					Cum: guestprof.Counts{Cycles: 1000, FetchBytes: 1800, Expansions: 60, Expanded: 120}},
				{Name: "helper", Flat: guestprof.Counts{Cycles: 300, FetchBytes: 500, Expansions: 20, Expanded: 40},
					Cum: guestprof.Counts{Cycles: 300, FetchBytes: 500, Expansions: 20, Expanded: 40}},
			},
		},
		GuestFolded: "main 700\nmain;helper 300\n",
		Audit:       audit,
		AuditCSV:    "name,class,bits\nmain,codeword,28\n",
		Trace:       []byte(`[{"name":"compress","ph":"X","ts":0,"dur":1500}]` + "\n"),
	}
}

func TestBundleRoundTripSynthetic(t *testing.T) {
	b := testBundle()
	dir := filepath.Join(t.TempDir(), "b")
	if err := Write(dir, b); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Errorf("round trip changed the bundle:\n got %+v\nwant %+v", got, b)
	}
}

func TestWriteReplacesOnlyBundles(t *testing.T) {
	b := testBundle()
	dir := filepath.Join(t.TempDir(), "b")
	if err := Write(dir, b); err != nil {
		t.Fatal(err)
	}
	// Overwriting an existing bundle is fine.
	if err := Write(dir, b); err != nil {
		t.Fatalf("rewriting an existing bundle: %v", err)
	}
	// A directory without a manifest is not a bundle: refuse, don't delete.
	plain := filepath.Join(t.TempDir(), "keep")
	if err := os.MkdirAll(plain, 0o755); err != nil {
		t.Fatal(err)
	}
	precious := filepath.Join(plain, "data.txt")
	if err := os.WriteFile(precious, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(plain, b); err == nil {
		t.Fatal("Write replaced a non-bundle directory")
	}
	if _, err := os.Stat(precious); err != nil {
		t.Fatalf("refused Write still removed existing data: %v", err)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	write := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "b")
		if err := Write(dir, testBundle()); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("missing manifest", func(t *testing.T) {
		dir := write(t)
		os.Remove(filepath.Join(dir, ManifestFile))
		if _, err := Open(dir); err == nil {
			t.Fatal("opened a directory with no manifest")
		}
	})
	t.Run("corrupt manifest", func(t *testing.T) {
		dir := write(t)
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "corrupt manifest") {
			t.Fatalf("want corrupt-manifest error, got %v", err)
		}
	})
	t.Run("wrong schema version", func(t *testing.T) {
		dir := write(t)
		man, err := os.ReadFile(filepath.Join(dir, ManifestFile))
		if err != nil {
			t.Fatal(err)
		}
		bad := strings.Replace(string(man), `"schema": 1`, `"schema": 99`, 1)
		if bad == string(man) {
			t.Fatal("schema field not found in manifest")
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "schema version 99") {
			t.Fatalf("want schema-version error, got %v", err)
		}
	})
	t.Run("checksum mismatch", func(t *testing.T) {
		dir := write(t)
		path := filepath.Join(dir, "stats.json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, ' '), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
			t.Fatalf("want checksum error, got %v", err)
		}
	})
	t.Run("unknown section", func(t *testing.T) {
		dir := write(t)
		man, err := os.ReadFile(filepath.Join(dir, ManifestFile))
		if err != nil {
			t.Fatal(err)
		}
		bad := strings.Replace(string(man), `"name": "stats"`, `"name": "exploit"`, 1)
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "unknown section") {
			t.Fatalf("want unknown-section error, got %v", err)
		}
	})
}

func TestNilCollectorIsDiscardSink(t *testing.T) {
	var c *Collector
	if c.Recorder() != nil || c.Tracer() != nil {
		t.Fatal("nil collector handed out non-nil sinks")
	}
	c.SetProfile(core.RunProfile{})
	c.SetGuest(nil, "")
	c.SetAudit(nil)
	b, err := c.Bundle()
	if err != nil || b != nil {
		t.Fatalf("nil collector Bundle = %v, %v; want nil, nil", b, err)
	}
	if err := c.Write(filepath.Join(t.TempDir(), "nope")); err != nil {
		t.Fatalf("nil collector Write: %v", err)
	}
}
