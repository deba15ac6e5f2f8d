package stats

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add("x", 1)
	r.Observe("p", time.Millisecond)
	r.Merge(Snapshot{Counters: map[string]int64{"x": 1}})
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Phases) != 0 {
		t.Fatalf("nil recorder snapshot not empty: %+v", s)
	}
}

func TestCountersAndPhases(t *testing.T) {
	r := New()
	r.Add("dict.pops", 3)
	r.Add("dict.pops", 2)
	r.Observe("core.build", 2*time.Millisecond)
	r.Observe("core.build", 3*time.Millisecond)
	s := r.Snapshot()
	if got := s.Counter("dict.pops"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	p := s.Phase("core.build")
	if p.Count != 2 || p.Nanos != int64(5*time.Millisecond) {
		t.Errorf("phase = %+v", p)
	}
	// Snapshot is a copy: mutating the recorder afterwards must not change it.
	r.Add("dict.pops", 100)
	if s.Counter("dict.pops") != 5 {
		t.Error("snapshot aliases recorder state")
	}
}

func TestMergeAndSummary(t *testing.T) {
	a, b := New(), New()
	a.Add("n", 1)
	a.Observe("p", time.Millisecond)
	b.Add("n", 2)
	b.Observe("p", time.Millisecond)
	a.Merge(b.Snapshot())
	s := a.Snapshot()
	if s.Counter("n") != 3 || s.Phase("p").Count != 2 {
		t.Fatalf("merge: %+v", s)
	}
	sum := s.Summary()
	if !strings.Contains(sum, "n=3") || !strings.Contains(sum, "p=") {
		t.Errorf("summary %q", sum)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Add("c", 1)
				r.Observe("p", time.Microsecond)
				_ = r.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := r.Snapshot().Counter("c"); got != 1600 {
		t.Errorf("counter = %d, want 1600", got)
	}
}

// TestConcurrentEverything drives every recorder entry point — Add,
// Observe, ObserveValue, Merge and Snapshot — from many goroutines at
// once; run under -race it is the recorder's concurrency gate.
func TestConcurrentEverything(t *testing.T) {
	r := New()
	side := New()
	side.Add("merged", 1)
	side.ObserveValue("mh", 5)
	sideSnap := side.Snapshot()

	const workers, iters = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				switch (i + j) % 5 {
				case 0:
					r.Add("c", 1)
				case 1:
					r.Observe("p", time.Microsecond)
				case 2:
					r.ObserveValue("h", int64(j))
				case 3:
					r.Merge(sideSnap)
				case 4:
					_ = r.Snapshot().Summary()
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	total := s.Counter("c") + s.Phase("p").Count + s.Hist("h").Count +
		s.Counter("merged")
	if total != workers*iters*4/5 {
		t.Errorf("operations accounted = %d, want %d", total, workers*iters*4/5)
	}
}

// TestSummaryFieldOrder pins Summary's exact rendering: fields sort
// lexicographically by their rendered text regardless of kind, so the
// output is byte-deterministic for any snapshot.
func TestSummaryFieldOrder(t *testing.T) {
	s := Snapshot{
		Counters: map[string]int64{"dict.entries": 12, "cache.hits": 90},
		Phases: map[string]Phase{
			"core.build": {Count: 3, Nanos: int64(4500 * time.Microsecond)},
		},
		Hists: map[string]Histogram{
			"dict.selection_bits": {Count: 2, P50: 64, P99: 128},
		},
	}
	const want = "cache.hits=90 core.build=4.5ms/3 dict.entries=12 dict.selection_bits=n2/p50=64/p99=128"
	if got := s.Summary(); got != want {
		t.Errorf("Summary() = %q\n            want %q", got, want)
	}
	// The order must be stable across repeated renderings (map iteration
	// order must never leak through).
	for i := 0; i < 20; i++ {
		if got := s.Summary(); got != want {
			t.Fatalf("iteration %d: %q", i, got)
		}
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := New()
	r.Add("c", 7)
	r.Observe("p", time.Millisecond)
	raw, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counter("c") != 7 || back.Phase("p").Nanos != int64(time.Millisecond) {
		t.Errorf("round trip: %+v", back)
	}
}
