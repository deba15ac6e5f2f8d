package core

import (
	"encoding/json"
	"testing"

	"repro/internal/cache"
	"repro/internal/codeword"
	"repro/internal/guestprof"
	"repro/internal/stats"
	"repro/internal/synth"
)

// TestCollectRunProfile compresses and runs a synthetic benchmark with
// full instrumentation attached (the exact guest profiler supplying the
// heat map) and checks the profile carries a non-empty heat map, whose
// Len and Count give the expansion-length distribution, and a cache miss
// curve.
func TestCollectRunProfile(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := Compress(p.Clone(), Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Entries) == 0 {
		t.Fatal("compression produced no dictionary entries")
	}
	cpu, err := NewMachine(img)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := img.GuestSymTab()
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.New()
	cpu.Record = rec
	gp := guestprof.New(sym)
	gp.Attach(cpu)
	ic, err := cache.New(cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	smp, err := cache.NewSampler(ic, 256)
	if err != nil {
		t.Fatal(err)
	}
	cpu.TraceFetch = smp.Access
	if _, err := cpu.Run(10_000_000); err != nil {
		t.Fatal(err)
	}

	prof := CollectRunProfile(img, gp.Heat(), cpu, rec.Snapshot(), ic, smp.Points)
	if prof.Name != img.Name {
		t.Fatalf("Name = %q, want %q", prof.Name, img.Name)
	}
	if prof.Steps == 0 || prof.Expanded == 0 {
		t.Fatalf("empty machine counters: steps=%d expanded=%d", prof.Steps, prof.Expanded)
	}
	if len(prof.HotEntries) == 0 {
		t.Fatal("empty dictionary-entry heat map")
	}
	for i, e := range prof.HotEntries {
		if e.Count <= 0 {
			t.Fatalf("HotEntries[%d] has count %d", i, e.Count)
		}
		if len(e.Insns) != e.Len || e.Len != len(img.Entries[e.Rank].Words) {
			t.Fatalf("HotEntries[%d]: %d insns for len %d, entry %d has %d words",
				i, len(e.Insns), e.Len, e.Rank, len(img.Entries[e.Rank].Words))
		}
		if i > 0 && prof.HotEntries[i-1].Count < e.Count {
			t.Fatal("heat map not sorted hottest-first")
		}
	}
	if prof.Cache == nil || prof.Cache.Accesses == 0 {
		t.Fatal("empty cache profile")
	}
	if prof.Cache.Hits+prof.Cache.Misses != prof.Cache.Accesses {
		t.Fatalf("cache accounting: %d hits + %d misses != %d accesses",
			prof.Cache.Hits, prof.Cache.Misses, prof.Cache.Accesses)
	}
	if len(prof.Cache.Curve) == 0 {
		t.Fatal("empty cache miss curve")
	}

	// The profile must survive a JSON round trip (it is ccrun's output).
	raw, err := json.Marshal(prof)
	if err != nil {
		t.Fatal(err)
	}
	var back RunProfile
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Steps != prof.Steps || len(back.HotEntries) != len(prof.HotEntries) {
		t.Fatal("profile changed across JSON round trip")
	}
}

// TestCollectRunProfileNilSections checks the collector tolerates missing
// instrumentation: no image, no cache, empty snapshot.
func TestCollectRunProfileNilSections(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := Compress(p.Clone(), Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := NewMachine(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	prof := CollectRunProfile(nil, nil, cpu, stats.Snapshot{}, nil, nil)
	if prof.Steps == 0 {
		t.Fatal("machine counters not collected")
	}
	if prof.HotEntries != nil || prof.Cache != nil {
		t.Fatal("optional sections present without their inputs")
	}
	// With an image but no heat counts, entries all count zero and the
	// heat map stays empty rather than listing cold entries.
	prof = CollectRunProfile(img, nil, cpu, stats.Snapshot{}, nil, nil)
	if len(prof.HotEntries) != 0 {
		t.Fatalf("heat map has %d entries without heat counts", len(prof.HotEntries))
	}
}
