package dictionary

// Microbenchmarks of the builder internals over synthetic text with
// controlled redundancy. The corpus-level Build/Compress benchmarks
// (BenchmarkDictionaryBuild, BenchmarkCompressSweep at the repository
// root) are the numbers recorded in BENCH_dictionary.json; these isolate
// enumeration from selection.

import (
	"math/rand"
	"testing"
)

// synthText builds n words from a vocabulary small enough that sequences
// repeat heavily, with sparse leaders — the shape real benchmarks have.
func synthText(n int) (text []uint32, comp, lead []bool) {
	rng := rand.New(rand.NewSource(42))
	text = make([]uint32, n)
	comp = make([]bool, n)
	lead = make([]bool, n)
	for i := 0; i < n; i++ {
		text[i] = 0x38000000 | uint32(rng.Intn(64))
		comp[i] = rng.Intn(12) != 0
		lead[i] = rng.Intn(16) == 0
	}
	if n > 0 {
		lead[0] = true
	}
	return text, comp, lead
}

func benchConfig(comp, lead []bool) Config {
	return Config{
		MaxEntries:        8192,
		MaxEntryLen:       4,
		CodewordBits:      func(int) int { return 16 },
		EntryOverheadBits: 16,
		Compressible:      comp,
		Leader:            lead,
	}
}

func benchBuild(b *testing.B, n int, strat Strategy) {
	text, comp, lead := synthText(n)
	cfg := benchConfig(comp, lead)
	cfg.Strategy = strat
	b.SetBytes(int64(4 * n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(text, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildIndexed2k(b *testing.B)    { benchBuild(b, 2_000, Greedy) }
func BenchmarkBuildIndexed20k(b *testing.B)   { benchBuild(b, 20_000, Greedy) }
func BenchmarkBuildReference2k(b *testing.B)  { benchBuild(b, 2_000, GreedyReference) }
func BenchmarkBuildReference20k(b *testing.B) { benchBuild(b, 20_000, GreedyReference) }
func BenchmarkBuildStatic20k(b *testing.B)    { benchBuild(b, 20_000, StaticOrder) }

func BenchmarkEnumerateIndexed(b *testing.B) {
	text, comp, lead := synthText(20_000)
	cfg := benchConfig(comp, lead)
	b.SetBytes(int64(4 * len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := newIndex(text, cfg)
		if len(ix.cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}

func BenchmarkEnumerateReference(b *testing.B) {
	text, comp, lead := synthText(20_000)
	cfg := benchConfig(comp, lead)
	b.SetBytes(int64(4 * len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cands := enumerate(text, cfg)
		if len(cands) == 0 {
			b.Fatal("no candidates")
		}
	}
}
