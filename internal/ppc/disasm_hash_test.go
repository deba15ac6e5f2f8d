package ppc_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/ppc"
	"repro/internal/synth"
)

// disasmHash pins every mnemonic and operand Disassemble prints. It was
// recorded before the syntax table replaced the disassembler's switch;
// any change to the printed text changes it.
const disasmHash = "c8037863e721ec065a546da10ae24967d50a6d598a92dc601ca80ee225820f8c"

// subsetWords draws n words whose primary opcode, and for primaries 19 and
// 31 whose extended opcode, belongs to the subset; every other bit is
// random. Many of them decode invalid, which pins the .long fallback too.
func subsetWords(n int, seed int64) []uint32 {
	primaries := []uint32{10, 11, 14, 15, 16, 17, 18, 19, 21, 24, 25, 26, 28, 31,
		32, 34, 36, 37, 38, 40, 44, 46, 47}
	xl := []uint32{16, 528}
	x10 := []uint32{0, 23, 24, 28, 32, 87, 124, 151, 215, 279, 407, 339, 316, 467,
		444, 536, 792, 824, 922, 954}
	xo9 := []uint32{40, 104, 235, 266, 491}
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint32, n)
	for i := range out {
		poc := primaries[rng.Intn(len(primaries))]
		w := rng.Uint32()&0x03FFFFFF | poc<<26
		switch poc {
		case 19:
			w = w&^(0x3FF<<1) | xl[rng.Intn(len(xl))]<<1
		case 31:
			if k := rng.Intn(len(x10) + len(xo9)); k < len(x10) {
				w = w&^(0x3FF<<1) | x10[k]<<1
			} else {
				w = w&^(0x1FF<<1) | xo9[k-len(x10)]<<1 // bit 10 (OE) stays random
			}
		}
		out[i] = w
	}
	return out
}

// TestDisassemblyHash hashes Disassemble's text over the eight benchmark
// programs, 200k random subset words and the builder words, so the
// printed syntax stays byte-identical across rewrites of the
// disassembler. The round-trip half is TestAssembleDisassembleQuick's.
func TestDisassemblyHash(t *testing.T) {
	corpus, err := synth.GenerateAll()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashWords := func(words []uint32) {
		for _, w := range words {
			h.Write([]byte(ppc.Disassemble(w)))
			h.Write([]byte{'\n'})
		}
	}
	for _, name := range synth.BenchmarkNames() {
		hashWords(corpus[name].Text)
	}
	hashWords(subsetWords(200_000, 35))
	hashWords(ppc.BuilderWords)
	if got := hex.EncodeToString(h.Sum(nil)); got != disasmHash {
		t.Fatalf("disassembly hash %s, want %s", got, disasmHash)
	}
}
