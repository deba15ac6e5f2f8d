package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/codeword"
	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/synth"
)

func compress(t *testing.T, name string, scheme codeword.Scheme) (*Image, int) {
	t.Helper()
	p, err := synth.Generate(name)
	if err != nil {
		t.Fatal(err)
	}
	img, err := Compress(p.Clone(), Options{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	return img, len(p.Text)
}

func TestFrontendSequentialWalk(t *testing.T) {
	// Fetching straight through the stream (ignoring control flow) must
	// produce exactly the decompressed instruction sequence with
	// consistent CIA/Next chaining.
	img, _ := compress(t, "compress", codeword.Nibble)
	want, err := img.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	fe := NewCompressedFrontend(img)
	if err := fe.Reset(img.Base); err != nil {
		t.Fatal(err)
	}
	var got []uint32
	prevEnd := img.Base
	for len(got) < len(want) {
		fi, err := fe.Fetch()
		if err != nil {
			t.Fatalf("fetch %d: %v", len(got), err)
		}
		got = append(got, fi.Word)
		if fi.CIA < img.Base || fi.CIA >= img.Base+uint32(img.Units) {
			t.Fatalf("CIA %#x outside stream", fi.CIA)
		}
		if fi.CIA > prevEnd {
			t.Fatalf("fetch gap: CIA %#x after end %#x", fi.CIA, prevEnd)
		}
		if fi.NextOK {
			prevEnd = fi.Next
		}
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("word %d: fetched %08x, decompressed %08x", i, got[i], want[i])
		}
	}
}

func TestFrontendNextOKSemantics(t *testing.T) {
	img, _ := compress(t, "li", codeword.Baseline)
	fe := NewCompressedFrontend(img)
	if err := fe.Reset(img.Base); err != nil {
		t.Fatal(err)
	}
	sawMidEntry := false
	inEntry := false
	for i := 0; i < 2000; i++ {
		fi, err := fe.Fetch()
		if err != nil {
			break
		}
		if inEntry {
			// Continuation words come from the on-chip dictionary: no
			// program-memory traffic, and CIA stays at the codeword.
			sawMidEntry = true
			if fi.MemBytes != 0 {
				t.Fatal("dictionary-expanded instruction charged memory traffic")
			}
		}
		inEntry = !fi.NextOK
	}
	if !sawMidEntry {
		t.Skip("no multi-instruction entry in the walked prefix")
	}
}

func TestFrontendSetPCValidation(t *testing.T) {
	img, _ := compress(t, "compress", codeword.Nibble)
	fe := NewCompressedFrontend(img)
	if err := fe.SetPC(img.Base - 1); err == nil {
		t.Error("jump below stream accepted")
	}
	if err := fe.SetPC(img.Base + uint32(img.Units)); err == nil {
		t.Error("jump past stream accepted")
	}
	if err := fe.SetPC(img.EntryUnit); err != nil {
		t.Errorf("entry jump rejected: %v", err)
	}
}

func TestFrontendBranchAbandonsEntry(t *testing.T) {
	// After SetPC, the expansion queue must be dropped: the next fetch
	// comes from the new address, not from a stale entry.
	img, _ := compress(t, "li", codeword.Baseline)
	fe := NewCompressedFrontend(img)
	if err := fe.Reset(img.Base); err != nil {
		t.Fatal(err)
	}
	// Find a multi-instruction codeword and fetch its first word only.
	var entryAddr uint32
	found := false
	for i := 0; i < 5000 && !found; i++ {
		fi, err := fe.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		if !fi.NextOK {
			found = true
			entryAddr = fi.CIA
		}
	}
	if !found {
		t.Skip("no multi-instruction entry found")
	}
	// Mid-entry now; branch to the entry point.
	if err := fe.SetPC(img.EntryUnit); err != nil {
		t.Fatal(err)
	}
	fi, err := fe.Fetch()
	if err != nil {
		t.Fatal(err)
	}
	if fi.CIA != img.EntryUnit {
		t.Fatalf("fetch after SetPC came from %#x (entry was %#x, abandoned codeword at %#x)",
			fi.CIA, img.EntryUnit, entryAddr)
	}
}

func TestFrontendTrafficAccounting(t *testing.T) {
	// Walking the whole stream must charge exactly one access per item
	// and (approximately) the stream's bytes in total.
	img, _ := compress(t, "compress", codeword.Baseline)
	fe := NewCompressedFrontend(img)
	if err := fe.Reset(img.Base); err != nil {
		t.Fatal(err)
	}
	want, _ := img.Decompress()
	bytes := 0
	accesses := 0
	for n := 0; n < len(want); n++ {
		fi, err := fe.Fetch()
		if err != nil {
			t.Fatal(err)
		}
		if fi.MemBytes > 0 {
			accesses++
			bytes += fi.MemBytes
		}
	}
	if accesses != img.Stats.Items {
		t.Fatalf("%d accesses for %d items", accesses, img.Stats.Items)
	}
	if bytes != img.StreamBytes {
		t.Fatalf("charged %d bytes, stream is %d", bytes, img.StreamBytes)
	}
}

// TestVerifyCatchesUnitCorruption: flipping the contents of any single
// stream unit must be detected by Verify (or fail decode outright).
func TestVerifyCatchesUnitCorruption(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []codeword.Scheme{codeword.Baseline, codeword.Nibble} {
		img, err := Compress(p.Clone(), Options{Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(p, img); err != nil {
			t.Fatal(err)
		}
		f := func(unitRaw uint32, flipRaw uint8) bool {
			unit := int(unitRaw) % img.Units
			flip := byte(flipRaw%15) + 1 // nonzero nibble/byte flip
			mutate(img, scheme, unit, flip)
			defer mutate(img, scheme, unit, flip) // restore
			return Verify(p, img) != nil
		}
		cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(17))}
		if err := quick.Check(f, cfg); err != nil {
			t.Errorf("%v: corruption survived verification: %v", scheme, err)
		}
	}
}

// mutate XORs a unit's bits in place, driven by the scheme's unit width
// (sub-byte units flip the addressed nibble; byte-multiple units flip
// their first byte).
func mutate(img *Image, scheme codeword.Scheme, unit int, flip byte) {
	if scheme.UnitBits() < 8 {
		b := unit / 2
		if unit%2 == 0 {
			img.Stream[b] ^= flip << 4
		} else {
			img.Stream[b] ^= flip & 0xF
		}
		return
	}
	bytesPer := scheme.UnitBits() / 8
	img.Stream[unit*bytesPer] ^= flip
}

func TestDecompressOnTruncatedStream(t *testing.T) {
	img, _ := compress(t, "compress", codeword.Nibble)
	img.Stream = img.Stream[:len(img.Stream)/2]
	if _, err := img.Decompress(); err == nil {
		t.Fatal("truncated stream decompressed")
	}
}

func TestStubRegisterIsScratch(t *testing.T) {
	// The far-branch stub clobbers r12; confirm the synthetic compiler
	// never holds r12 live across basic-block boundaries by checking that
	// no generated program reads r12 before writing it within a block.
	p, err := synth.Generate("gcc")
	if err != nil {
		t.Fatal(err)
	}
	an, err := program.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range an.Blocks() {
		written := false
		for i := blk.Start; i < blk.End; i++ {
			inst := ppc.Decode(p.Text[i])
			reads, writes := ppc.RegUses(inst)
			if !written && reads.Has(12) {
				// r12 read before any write in this block would make it
				// live-in, which the stub assumption forbids.
				t.Fatalf("word %d (%s) reads r12 live-in to its block", i, inst)
			}
			if writes.Has(12) {
				written = true
			}
		}
	}
}
