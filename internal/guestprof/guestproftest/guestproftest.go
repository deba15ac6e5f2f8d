// Package guestproftest holds what the guest profiler's differential
// tests share: the equality a journal-fed profile must keep with its
// Step-fed oracle, and the I-cache those tests observe.
package guestproftest

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/guestprof"
)

// Same fails t unless got, typically a journal-fed profiler, equals
// want, typically its Step-fed oracle: folded stacks, every function's
// flat and cumulative counts (cache misses included), and heat.
func Same(t testing.TB, what string, want, got *guestprof.Profiler) {
	t.Helper()
	var wf, gf strings.Builder
	if err := want.WriteFolded(&wf); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteFolded(&gf); err != nil {
		t.Fatal(err)
	}
	if wf.String() != gf.String() {
		t.Fatalf("%s: folded stacks differ:\ngot:\n%s\nwant:\n%s", what, gf.String(), wf.String())
	}
	if w, g := want.Profile(what), got.Profile(what); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: profiles differ:\ngot  %+v\nwant %+v", what, g, w)
	}
	if w, g := want.Heat(), got.Heat(); !slices.Equal(w, g) {
		t.Fatalf("%s: heat maps differ:\ngot  %v\nwant %v", what, g, w)
	}
}

// NewCache returns a 1 KiB direct-mapped I-cache of 32-byte lines, small
// enough that every test program misses.
func NewCache(t testing.TB) *cache.Cache {
	t.Helper()
	ic, err := cache.New(cache.Config{SizeBytes: 1024, LineBytes: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ic
}
