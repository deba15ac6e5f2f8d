package dictionary_test

// Differential tests: the indexed greedy builder (the default Strategy)
// must produce byte-identical results to the reference transcription of
// the paper's algorithm on every synth benchmark and configuration — the
// paper's figures must not move by a single byte when the implementation
// changes. `make check` runs these explicitly (the `diff` target).

import (
	"reflect"
	"testing"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/synth"
)

// assertIdenticalBuilds runs both greedy implementations over one input
// and requires deeply equal Results and the same dict.candidates count. It
// returns the indexed builder's counters for callers that assert on
// observability.
func assertIdenticalBuilds(t *testing.T, text []uint32, cfg dictionary.Config) stats.Snapshot {
	t.Helper()
	rec, refRec := stats.New(), stats.New()
	cfg.Strategy = dictionary.Greedy
	cfg.Stats = rec
	got, err := dictionary.Build(text, cfg)
	if err != nil {
		t.Fatalf("indexed build: %v", err)
	}
	cfg.Strategy = dictionary.GreedyReference
	cfg.Stats = refRec
	want, err := dictionary.Build(text, cfg)
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	if !reflect.DeepEqual(got.Entries, want.Entries) {
		t.Fatalf("entries diverge: indexed %d entries, reference %d", len(got.Entries), len(want.Entries))
	}
	if !reflect.DeepEqual(got.Items, want.Items) {
		t.Fatalf("items diverge: indexed %d items, reference %d", len(got.Items), len(want.Items))
	}
	if got.CoveredInsns != want.CoveredInsns {
		t.Fatalf("covered %d != %d", got.CoveredInsns, want.CoveredInsns)
	}
	s := rec.Snapshot()
	if c, ref := s.Counter("dict.candidates"), refRec.Snapshot().Counter("dict.candidates"); c != ref {
		t.Fatalf("dict.candidates: indexed %d, reference %d", c, ref)
	}
	return s
}

func benchmarkInput(t testing.TB, name string) ([]uint32, dictionary.Config) {
	t.Helper()
	p, err := synth.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	an, err := program.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	return p.Text, dictionary.Config{
		MaxEntries:        codeword.Baseline.MaxEntries(),
		MaxEntryLen:       4,
		CodewordBits:      codeword.Baseline.CodewordBits,
		EntryOverheadBits: codeword.EntryOverheadBits,
		Compressible:      an.Compressible,
		Leader:            an.Leader,
	}
}

// TestIndexedMatchesReferenceSynth is the acceptance differential: all
// eight benchmarks, baseline configuration.
func TestIndexedMatchesReferenceSynth(t *testing.T) {
	for _, name := range synth.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			text, cfg := benchmarkInput(t, name)
			s := assertIdenticalBuilds(t, text, cfg)
			if s.Counter("dict.entries") == 0 {
				t.Error("no entries selected — differential is vacuous")
			}
			if s.Counter("dict.invalidations") == 0 {
				t.Error("no invalidations recorded — the inverted index did no work")
			}
			for _, c := range []string{"dict.dirty_skips", "dict.heap_pops"} {
				if _, ok := s.Counters[c]; !ok {
					t.Errorf("counter %s not recorded", c)
				}
			}
		})
	}
}

// TestIndexedMatchesReferenceEnumeration pins the sort-based enumeration
// to the reference's key-sorted map (see CheckEnumeration): the repeated
// candidates in the same serial order with the same occurrence positions,
// every left-out candidate a single occurrence, and an inverted index
// consistent with them. It runs every benchmark at each entry length the
// paper sweeps, plus the degenerate texts where a radix sort or a
// longest-common-prefix walk would go wrong first.
func TestIndexedMatchesReferenceEnumeration(t *testing.T) {
	check := func(t *testing.T, text []uint32, cfg dictionary.Config) int {
		t.Helper()
		n, err := dictionary.CheckEnumeration(text, cfg)
		if err != nil {
			t.Fatalf("MaxEntryLen %d: %v", cfg.MaxEntryLen, err)
		}
		return n
	}
	maxLens := []int{1, 2, 4, 8}
	for _, name := range synth.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			text, cfg := benchmarkInput(t, name)
			for _, maxLen := range maxLens {
				cfg.MaxEntryLen = maxLen
				if check(t, text, cfg) == 0 {
					t.Fatalf("MaxEntryLen %d: no candidates", maxLen)
				}
			}
		})
	}

	// repeats says whether the text has a repeated sequence, so a
	// candidate, at any MaxEntryLen.
	edges := []struct {
		name       string
		n          int
		word       func(i int) uint32
		comp, lead func(i int) bool
		repeats    bool
	}{
		{"one-distinct-word", 40, func(int) uint32 { return 0x60000000 },
			func(int) bool { return true }, func(i int) bool { return i%13 == 0 }, true},
		{"all-distinct-words", 40, func(i int) uint32 { return 0x38600000 | uint32(i*7919%40) },
			func(int) bool { return true }, func(i int) bool { return i == 0 }, false},
		{"all-incompressible", 20, func(i int) uint32 { return 0x38600000 | uint32(i%3) },
			func(int) bool { return false }, func(i int) bool { return i == 0 }, false},
		{"one-word", 1, func(int) uint32 { return 0x7c632214 },
			func(int) bool { return true }, func(int) bool { return true }, false},
		{"leader-every-word", 30, func(i int) uint32 { return 0x38600000 | uint32(i%3) },
			func(int) bool { return true }, func(int) bool { return true }, true},
	}
	for _, e := range edges {
		e := e
		t.Run(e.name, func(t *testing.T) {
			text := make([]uint32, e.n)
			comp := make([]bool, e.n)
			lead := make([]bool, e.n)
			for i := range text {
				text[i], comp[i], lead[i] = e.word(i), e.comp(i), e.lead(i)
			}
			cfg := dictionary.Config{
				MaxEntryLen:       1,
				CodewordBits:      codeword.Nibble.CodewordBits,
				EntryOverheadBits: codeword.EntryOverheadBits,
				Compressible:      comp,
				Leader:            lead,
			}
			for _, maxLen := range maxLens {
				cfg.MaxEntryLen = maxLen
				if n := check(t, text, cfg); (n > 0) != e.repeats {
					t.Fatalf("MaxEntryLen %d: %d candidates", maxLen, n)
				}
				assertIdenticalBuilds(t, text, cfg)
			}
		})
	}
}

// BenchmarkEnumerateIndexedGCC enumerates gcc's real marker vectors —
// thousands of distinct words, so the ranking and counting-sort passes
// are measured at a realistic bucket count (the synthetic-text
// enumeration benchmark draws from only 64 words).
func BenchmarkEnumerateIndexedGCC(b *testing.B) {
	text, cfg := benchmarkInput(b, "gcc")
	b.SetBytes(int64(4 * len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if dictionary.IndexedCandidates(text, cfg) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// TestIndexedMatchesReferenceSweep varies the parameters the paper sweeps
// (entry length, codeword budget, cost schedule) on the two smallest
// benchmarks.
func TestIndexedMatchesReferenceSweep(t *testing.T) {
	for _, name := range []string{"compress", "li"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			text, base := benchmarkInput(t, name)
			for _, maxLen := range []int{1, 2, 8} {
				cfg := base
				cfg.MaxEntryLen = maxLen
				assertIdenticalBuilds(t, text, cfg)
			}
			for _, maxEntries := range []int{16, 64, 0} {
				cfg := base
				cfg.MaxEntries = maxEntries
				assertIdenticalBuilds(t, text, cfg)
			}
			nibble := base
			nibble.CodewordBits = codeword.Nibble.CodewordBits
			nibble.MaxEntries = codeword.Nibble.MaxEntries()
			assertIdenticalBuilds(t, text, nibble)
			for _, maxLen := range []int{1, 4, 8} {
				free := base
				free.CodewordBits, free.EntryOverheadBits = freeCodewords, 0
				free.MaxEntryLen, free.MaxEntries = maxLen, 0
				assertIdenticalBuilds(t, text, free)
			}
		})
	}
}

// freeCodewords is the zero-saving boundary of the cost model: with
// codewords of 0 bits and no entry overhead, a sequence that occurs once
// saves exactly 0 bits, so no builder may select it.
func freeCodewords(int) int { return 0 }

// TestStaticMatchesReference pins StaticOrder, which runs on the indexed
// builder's occurrence index, to the string-keyed StaticReference across
// the entry lengths, cost schedules and dictionary caps the ablation and
// the figures use, and at the zero-saving boundary.
func TestStaticMatchesReference(t *testing.T) {
	schedules := []struct {
		name     string
		bits     func(int) int
		overhead int
	}{
		{"baseline", codeword.Baseline.CodewordBits, codeword.EntryOverheadBits},
		{"nibble", codeword.Nibble.CodewordBits, codeword.EntryOverheadBits},
		{"free", freeCodewords, 0},
	}
	for _, name := range synth.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			text, cfg := benchmarkInput(t, name)
			cfg.Strategy = dictionary.StaticOrder
			for _, scheme := range schedules {
				cfg.CodewordBits, cfg.EntryOverheadBits = scheme.bits, scheme.overhead
				for _, maxLen := range []int{1, 4, 8} {
					cfg.MaxEntryLen = maxLen
					for _, n := range []int{1, 16, 256, 0} {
						cfg.MaxEntries = n
						got, err := dictionary.Build(text, cfg)
						if err != nil {
							t.Fatal(err)
						}
						want := dictionary.StaticReference(text, cfg)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s, MaxEntryLen %d, cap %d: static build (%d entries, %d items) != reference (%d entries, %d items)",
								scheme.name, maxLen, n, len(got.Entries), len(got.Items), len(want.Entries), len(want.Items))
						}
						if len(want.Entries) == 0 {
							t.Fatalf("%s, MaxEntryLen %d, cap %d: no entries selected — differential is vacuous", scheme.name, maxLen, n)
						}
					}
				}
			}
		})
	}
}

// TestCompressStrategyParity lifts the differential to the whole pipeline:
// a full core.Compress with the indexed builder must produce the same
// image bytes as with the reference builder.
func TestCompressStrategyParity(t *testing.T) {
	p, err := synth.Generate("li")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []codeword.Scheme{codeword.Baseline, codeword.Nibble} {
		indexed, err := core.Compress(p.Clone(), core.Options{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := core.Compress(p.Clone(), core.Options{Scheme: scheme, Strategy: dictionary.GreedyReference})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(indexed.Stream, ref.Stream) {
			t.Errorf("%v: stream bytes diverge", scheme)
		}
		if !reflect.DeepEqual(indexed.Entries, ref.Entries) {
			t.Errorf("%v: dictionaries diverge", scheme)
		}
		if indexed.CompressedBytes() != ref.CompressedBytes() {
			t.Errorf("%v: size %d != %d", scheme, indexed.CompressedBytes(), ref.CompressedBytes())
		}
	}
}

// TestPrefixMatchesCappedBuild pins the prefix invariant the corpus's
// family cache rests on: for every strategy, a build capped at n equals
// the first n selections of the uncapped build, as reconstructed by
// Selection.Prefix. The nibble cost schedule makes savings depend on rank,
// so a cap that changed earlier selections would show here.
func TestPrefixMatchesCappedBuild(t *testing.T) {
	strategies := []dictionary.Strategy{dictionary.Greedy, dictionary.GreedyReference, dictionary.StaticOrder}
	caps := []int{1, 8, 16, 32, 256, 4096, 0}
	for _, name := range synth.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			text, cfg := benchmarkInput(t, name)
			cfg.CodewordBits = codeword.Nibble.CodewordBits
			for _, strategy := range strategies {
				for _, maxLen := range []int{1, 4, 8} {
					cfg.Strategy, cfg.MaxEntryLen, cfg.MaxEntries = strategy, maxLen, 0
					full, err := dictionary.Build(text, cfg)
					if err != nil {
						t.Fatal(err)
					}
					sel := full.Selection()
					for _, n := range caps {
						cfg.MaxEntries = n
						want, err := dictionary.Build(text, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if got := sel.Prefix(text, n); !reflect.DeepEqual(got, want) {
							t.Fatalf("strategy %d, MaxEntryLen %d, cap %d: prefix of the uncapped build (%d entries, %d items) != capped build (%d entries, %d items)",
								strategy, maxLen, n, len(got.Entries), len(got.Items), len(want.Entries), len(want.Items))
						}
					}
				}
			}
		})
	}
}

// TestCoverKeepsIndexConsistent checks, after every selection, that the
// occurrence index encodes coverage exactly (see CheckedBuild): on every
// benchmark at each entry length the paper sweeps, and on the fleet
// text, all eight benchmarks concatenated, that a shared dictionary is
// built over.
func TestCoverKeepsIndexConsistent(t *testing.T) {
	check := func(t *testing.T, text []uint32, cfg dictionary.Config) {
		t.Helper()
		got, err := dictionary.CheckedBuild(text, cfg)
		if err != nil {
			t.Fatalf("MaxEntryLen %d: %v", cfg.MaxEntryLen, err)
		}
		want, err := dictionary.Build(text, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MaxEntryLen %d: checked build differs from Build", cfg.MaxEntryLen)
		}
		if len(got.Entries) == 0 {
			t.Fatalf("MaxEntryLen %d: no entries selected — the check is vacuous", cfg.MaxEntryLen)
		}
	}
	var fleet []uint32
	var comp, lead []bool
	for _, name := range synth.BenchmarkNames() {
		text, cfg := benchmarkInput(t, name)
		fleet = append(fleet, text...)
		comp = append(comp, cfg.Compressible...)
		lead = append(lead, cfg.Leader...)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, maxLen := range []int{1, 4, 8} {
				cfg.MaxEntryLen = maxLen
				check(t, text, cfg)
			}
		})
	}
	t.Run("fleet", func(t *testing.T) {
		t.Parallel()
		_, cfg := benchmarkInput(t, "compress")
		cfg.Compressible, cfg.Leader = comp, lead
		check(t, fleet, cfg)
	})
}

// fleetDictionary returns the eight benchmarks and the shared baseline
// dictionary over all of them, the fleet deployment's fixed dictionary.
func fleetDictionary(t testing.TB) ([]*program.Program, []dictionary.Entry) {
	t.Helper()
	var progs []*program.Program
	for _, name := range synth.BenchmarkNames() {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	entries, err := core.BuildSharedDictionary(progs, core.Options{Scheme: codeword.Baseline, MaxEntryLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	return progs, entries
}

// TestApplyMatchesReferenceSynth: Apply and the map-based reference
// rewrite every benchmark against the shared dictionary identically.
func TestApplyMatchesReferenceSynth(t *testing.T) {
	progs, entries := fleetDictionary(t)
	for _, p := range progs {
		an, err := program.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := dictionary.Config{Compressible: an.Compressible, Leader: an.Leader}
		got, err := dictionary.Apply(p.Text, entries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dictionary.ApplyReference(p.Text, entries, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d items covering %d words, reference %d covering %d",
				p.Name, len(got.Items), got.CoveredInsns, len(want.Items), want.CoveredInsns)
		}
	}
}

// TestApplyAllocationsIndependentOfDictionary: applying a fixed
// dictionary to gcc allocates the same few objects whatever the
// dictionary's size, none per entry, first word or item.
func TestApplyAllocationsIndependentOfDictionary(t *testing.T) {
	progs, entries := fleetDictionary(t)
	var gcc *program.Program
	for _, p := range progs {
		if p.Name == "gcc" {
			gcc = p
		}
	}
	an, err := program.Analyze(gcc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := dictionary.Config{Compressible: an.Compressible, Leader: an.Leader}
	var first float64
	for _, n := range []int{1, 64, len(entries)} {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := dictionary.Apply(gcc.Text, entries[:n], cfg); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d entries: %.0f allocations", n, allocs)
		if n == 1 {
			first = allocs
		}
		if allocs != first || allocs > 12 {
			t.Errorf("%d entries: %.0f allocations, want %.0f (and at most 12) as with one entry", n, allocs, first)
		}
	}
}
