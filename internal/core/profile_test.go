package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/codeword"
	"repro/internal/guestprof"
	"repro/internal/synth"
)

// TestCollectRunProfile compresses and runs a synthetic benchmark with
// full instrumentation attached (the guest profiler supplying the heat
// map) and checks the profile carries a non-empty heat map, whose
// Len and Count give the expansion-length distribution, and the cache
// sampler's miss curve.
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

	prof := CollectRunProfile(img, gp.Heat(), smp.Points)
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
	if len(prof.MissCurve) == 0 || !reflect.DeepEqual(prof.MissCurve, smp.Points) {
		t.Fatalf("miss curve has %d points, sampler %d", len(prof.MissCurve), len(smp.Points))
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
	if !reflect.DeepEqual(back, prof) {
		t.Fatal("profile changed across JSON round trip")
	}
}

// TestCollectRunProfileNilSections checks the collector tolerates missing
// instrumentation: no image, no heat counts, no cache sampler.
func TestCollectRunProfileNilSections(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := Compress(p.Clone(), Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	prof := CollectRunProfile(nil, nil, nil)
	if prof.HotEntries != nil || prof.MissCurve != nil {
		t.Fatal("optional sections present without their inputs")
	}
	// With an image but no heat counts, entries all count zero and the
	// heat map stays empty rather than listing cold entries.
	prof = CollectRunProfile(img, nil, nil)
	if len(prof.HotEntries) != 0 {
		t.Fatalf("heat map has %d entries without heat counts", len(prof.HotEntries))
	}
}
