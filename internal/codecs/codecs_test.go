package codecs

import (
	"math/rand"
	"testing"

	"repro/internal/codec"
	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/synth"
)

// TestMaxCompressedBytesBounds checks every registered codec's
// MaxCompressedBytes against what it produces: each of the corpus
// programs, and a program of distinct non-branch instructions where
// nothing repeats and nothing compresses well, must encode to at most
// the bound for its original size.
func TestMaxCompressedBytesBounds(t *testing.T) {
	var progs []*program.Program
	for _, name := range synth.BenchmarkNames() {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	progs = append(progs, distinctProgram(rand.New(rand.NewSource(20)), 3000))

	for _, cd := range codec.Codecs() {
		for _, p := range progs {
			img, err := cd.Compress(p, codec.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", cd.Name(), p.Name, err)
			}
			if got, bound := img.CompressedBytes(), cd.MaxCompressedBytes(p.SizeBytes()); got > bound {
				t.Errorf("%s/%s: %d compressed bytes exceed MaxCompressedBytes(%d) = %d",
					cd.Name(), p.Name, got, p.SizeBytes(), bound)
			}
		}
	}
}

// distinctProgram is n pairwise-distinct addi instructions with random
// registers and immediates: no branch, no repeated word.
func distinctProgram(rng *rand.Rand, n int) *program.Program {
	p := &program.Program{
		Name:     "distinct",
		TextBase: program.DefaultTextBase,
		DataBase: program.DefaultDataBase,
		Symbols:  []program.Symbol{{Name: "main"}},
	}
	seen := map[uint32]bool{}
	for len(p.Text) < n {
		w := ppc.Addi(uint8(3+rng.Intn(29)), uint8(1+rng.Intn(31)), int32(rng.Intn(1<<16)-1<<15))
		if !seen[w] {
			seen[w] = true
			p.Text = append(p.Text, w)
		}
	}
	return p
}
