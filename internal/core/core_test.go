package core

import (
	"reflect"
	"testing"

	"repro/internal/codeword"
	"repro/internal/dictionary"
	"repro/internal/machine"
	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/trace"
)

var allSchemes = []codeword.Scheme{codeword.Baseline, codeword.OneByte, codeword.Nibble, codeword.Liao}

func TestCompressVerifyAllBenchmarksAllSchemes(t *testing.T) {
	for _, name := range synth.BenchmarkNames() {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range allSchemes {
			s := s
			opt := Options{Scheme: s}
			if s == codeword.OneByte {
				opt.MaxEntries = 32
			}
			img, err := Compress(p.Clone(), opt)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, s, err)
			}
			if err := Verify(p, img); err != nil {
				t.Fatalf("%s/%v: verify: %v", name, s, err)
			}
			if img.Ratio() >= 1.0 && s != codeword.Liao && s != codeword.OneByte {
				t.Errorf("%s/%v: ratio %.3f did not compress", name, s, img.Ratio())
			}
			if img.Ratio() <= 0 {
				t.Errorf("%s/%v: ratio %.3f nonsensical", name, s, img.Ratio())
			}
			exp, err := img.Decompress()
			if err != nil {
				t.Fatalf("%s/%v: decompress: %v", name, s, err)
			}
			if len(exp) < len(p.Text) {
				t.Errorf("%s/%v: decompressed %d < original %d words", name, s, len(exp), len(p.Text))
			}
		}
	}
}

func TestCompressedExecutionMatchesOriginal(t *testing.T) {
	// The paper's whole premise: the compressed program processor produces
	// identical behavior. Run every benchmark under every scheme.
	for _, name := range synth.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := synth.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range allSchemes {
				opt := Options{Scheme: s}
				if s == codeword.OneByte {
					opt.MaxEntries = 32
				}
				img, err := Compress(p.Clone(), opt)
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				orig, comp, err := RunBoth(p, img, 200_000_000)
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if img.Stats.StubBranches == 0 {
					// With no stubs the dynamic instruction streams must
					// be identical, not merely output-equivalent.
					if orig.Stats.Steps != comp.Stats.Steps {
						t.Errorf("%v: step counts differ with no stubs: %d vs %d",
							s, orig.Stats.Steps, comp.Stats.Steps)
					}
					if orig.Stats.TakenBranches != comp.Stats.TakenBranches {
						t.Errorf("%v: taken-branch counts differ with no stubs: %d vs %d",
							s, orig.Stats.TakenBranches, comp.Stats.TakenBranches)
					}
					if orig.Stats.Syscalls != comp.Stats.Syscalls {
						t.Errorf("%v: syscall counts differ: %d vs %d",
							s, orig.Stats.Syscalls, comp.Stats.Syscalls)
					}
				}
				// The compressed image must fetch fewer program-memory
				// bytes — that is the density win.
				if comp.Stats.FetchedBytes >= orig.Stats.FetchedBytes {
					t.Errorf("%v: compressed fetch traffic %d >= original %d",
						s, comp.Stats.FetchedBytes, orig.Stats.FetchedBytes)
				}
			}
		})
	}
}

func TestRatioOrderingAcrossSchemes(t *testing.T) {
	// Nibble beats baseline (shorter codewords), and both beat Liao
	// (which cannot compress single instructions) — §4.1.3 and §2.4.
	p, err := synth.Generate("ijpeg")
	if err != nil {
		t.Fatal(err)
	}
	ratio := map[codeword.Scheme]float64{}
	for _, s := range []codeword.Scheme{codeword.Baseline, codeword.Nibble, codeword.Liao} {
		img, err := Compress(p.Clone(), Options{Scheme: s})
		if err != nil {
			t.Fatal(err)
		}
		ratio[s] = img.Ratio()
	}
	t.Logf("ratios: baseline %.3f nibble %.3f liao %.3f",
		ratio[codeword.Baseline], ratio[codeword.Nibble], ratio[codeword.Liao])
	if ratio[codeword.Nibble] >= ratio[codeword.Baseline] {
		t.Errorf("nibble %.3f not better than baseline %.3f", ratio[codeword.Nibble], ratio[codeword.Baseline])
	}
	if ratio[codeword.Baseline] >= ratio[codeword.Liao] {
		t.Errorf("baseline %.3f not better than liao %.3f", ratio[codeword.Baseline], ratio[codeword.Liao])
	}
}

func TestMoreCodewordsNeverHurt(t *testing.T) {
	// Fig. 5's monotonicity: growing the codeword budget can only improve
	// (or hold) the ratio.
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for _, n := range []int{16, 64, 256, 1024, 4096, 8192} {
		img, err := Compress(p.Clone(), Options{Scheme: codeword.Baseline, MaxEntries: n})
		if err != nil {
			t.Fatal(err)
		}
		if img.Ratio() > prev+1e-9 {
			t.Errorf("ratio rose from %.4f to %.4f at %d codewords", prev, img.Ratio(), n)
		}
		prev = img.Ratio()
	}
}

// buildFarBranch constructs a program whose conditional branch cannot
// reach its target at fine-unit resolution, forcing the stub path.
func buildFarBranch(t *testing.T, filler int) *program.Program {
	t.Helper()
	b := program.NewBuilder("far")
	f := b.Func("main")
	f.Emit(ppc.Li(3, 7))
	f.Emit(ppc.Cmpwi(0, 3, 0))
	f.Branch(ppc.Bgt(0, 0), "far") // taken
	f.Emit(ppc.Li(3, 111))         // skipped
	f.Branch(ppc.B(0), "exit")
	// Unique filler words so nothing compresses and the distance stays.
	for i := 0; i < filler; i++ {
		f.Emit(ppc.Xori(4, 4, int32(i%0x7FFF)))
		f.Emit(ppc.Addi(5, 5, int32(i%200+1)))
	}
	f.Label("far")
	f.Emit(ppc.Li(3, 42))
	f.Label("exit")
	f.Emit(ppc.Li(0, machine.SysExit))
	f.Emit(ppc.Sc())
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFarBranchStub(t *testing.T) {
	// 3000 filler pairs ≈ 6000 raw instructions ≈ 54000 nibble units:
	// far beyond the ±8192-unit reach of a 14-bit field at 4-bit
	// resolution.
	p := buildFarBranch(t, 3000)
	img, err := Compress(p.Clone(), Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	if img.Stats.StubBranches == 0 {
		t.Fatal("no stub generated for a far branch")
	}
	if err := Verify(p, img); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if _, _, err := RunBoth(p, img, 1_000_000); err != nil {
		t.Fatalf("behavioral: %v", err)
	}
	cpu, err := NewMachine(img)
	if err != nil {
		t.Fatal(err)
	}
	status, err := cpu.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if status != 42 {
		t.Fatalf("far branch not taken through stub: status %d", status)
	}
}

func TestNearBranchNoStub(t *testing.T) {
	p := buildFarBranch(t, 10)
	img, err := Compress(p.Clone(), Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	if img.Stats.StubBranches != 0 {
		t.Fatalf("%d stubs generated for near branches", img.Stats.StubBranches)
	}
}

func TestRelativeBranchesNeverCompressed(t *testing.T) {
	p, err := synth.Generate("li")
	if err != nil {
		t.Fatal(err)
	}
	img, err := Compress(p.Clone(), Options{Scheme: codeword.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	for rank, e := range img.Entries {
		for _, w := range e.Words {
			if ppc.IsRelativeBranch(w) {
				t.Fatalf("entry %d contains relative branch %s", rank, ppc.Disassemble(w))
			}
			if ppc.IsBranch(w) && ppc.IsCall(w) {
				t.Fatalf("entry %d contains linking branch %s", rank, ppc.Disassemble(w))
			}
		}
	}
}

func TestEntriesRankedByFrequency(t *testing.T) {
	p, err := synth.Generate("go")
	if err != nil {
		t.Fatal(err)
	}
	img, err := Compress(p.Clone(), Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(img.Entries); i++ {
		if img.Entries[i].Uses > img.Entries[i-1].Uses {
			t.Fatalf("entries not frequency-ranked at %d: %d > %d",
				i, img.Entries[i].Uses, img.Entries[i-1].Uses)
		}
	}
}

func TestStatsDecomposition(t *testing.T) {
	p, err := synth.Generate("m88ksim")
	if err != nil {
		t.Fatal(err)
	}
	img, err := Compress(p.Clone(), Options{Scheme: codeword.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	st := img.Stats
	if st.Items != st.CodewordItems+st.RawItems-st.StubBranches*(condStubLen-1) &&
		st.Items > st.CodewordItems+st.RawItems {
		t.Logf("items=%d cw=%d raw=%d stubs=%d", st.Items, st.CodewordItems, st.RawItems, st.StubBranches)
	}
	// Stream bits must decompose exactly into codeword + raw bits (modulo
	// final byte padding).
	gotBits := st.CodewordBits + st.RawBits
	streamBits := img.Units * img.Scheme.UnitBits()
	if gotBits != streamBits {
		t.Fatalf("bit decomposition %d != stream %d", gotBits, streamBits)
	}
	if st.EscapeBits != 8*st.CodewordItems {
		t.Fatalf("escape bits %d for %d codewords", st.EscapeBits, st.CodewordItems)
	}
	if img.StreamBytes != (streamBits+7)/8 {
		t.Fatalf("stream bytes %d for %d bits", img.StreamBytes, streamBits)
	}
	if img.CompressedBytes() != img.StreamBytes+img.DictionaryBytes {
		t.Fatal("compressed size does not include the dictionary")
	}
}

func TestMaxEntryLenRespected(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, maxLen := range []int{1, 2, 4, 8} {
		img, err := Compress(p.Clone(), Options{Scheme: codeword.Baseline, MaxEntryLen: maxLen})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range img.Entries {
			if len(e.Words) > maxLen {
				t.Fatalf("entry of %d words with max %d", len(e.Words), maxLen)
			}
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := Compress(p.Clone(), Options{Scheme: codeword.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(p, img); err != nil {
		t.Fatal(err)
	}
	// Corrupt one dictionary entry word.
	img.Entries[0].Words[0] ^= 4
	if err := Verify(p, img); err == nil {
		t.Fatal("corrupted dictionary passed verification")
	}
	img.Entries[0].Words[0] ^= 4
	// Corrupt a jump table slot.
	if len(img.JumpTableSlots) > 0 {
		slot := img.JumpTableSlots[0]
		img.Data[slot+3] ^= 1
		if err := Verify(p, img); err == nil {
			t.Fatal("corrupted jump table passed verification")
		}
		img.Data[slot+3] ^= 1
	}
	// Corrupt the entry point.
	img.EntryUnit++
	if err := Verify(p, img); err == nil {
		t.Fatal("corrupted entry point passed verification")
	}
}

// TestSharedDictionaryObserved: BuildSharedDictionary reports like
// Compress — one core.analyze and one core.build phase, the builder's
// dict.* counters, and its dict.enumerate/select/commit spans under
// core.build — and being observed does not change the dictionary.
func TestSharedDictionaryObserved(t *testing.T) {
	var progs []*program.Program
	for _, name := range []string{"compress", "li"} {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	opt := Options{Scheme: codeword.Baseline, MaxEntryLen: 4}
	plain, err := BuildSharedDictionary(progs, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec, tr := stats.New(), trace.New()
	root := tr.Root("fleet")
	opt.Stats, opt.Trace = rec, root
	observed, err := BuildSharedDictionary(progs, opt)
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if !reflect.DeepEqual(observed, plain) {
		t.Fatal("observed build differs from the plain one")
	}
	snap := rec.Snapshot()
	if snap.Counter("dict.candidates") <= 0 || snap.Counter("dict.entries") != int64(len(plain)) {
		t.Errorf("dict.candidates %d, dict.entries %d for %d entries", snap.Counter("dict.candidates"), snap.Counter("dict.entries"), len(plain))
	}
	for _, phase := range []string{"core.analyze", "core.build"} {
		if n := snap.Phase(phase).Count; n != 1 {
			t.Errorf("phase %s recorded %d times, want 1", phase, n)
		}
	}
	parent := map[int64]string{}
	for _, s := range tr.Spans() {
		parent[s.ID] = s.Name
	}
	under := map[string]string{}
	for _, s := range tr.Spans() {
		under[s.Name] = parent[s.Parent]
	}
	for _, name := range []string{"dict.enumerate", "dict.select", "dict.commit"} {
		if under[name] != "core.build" {
			t.Errorf("span %s under %q, want core.build", name, under[name])
		}
	}
}

func TestCompressFixedSharedDictionary(t *testing.T) {
	opt := Options{Scheme: codeword.Baseline, MaxEntryLen: 4}
	var progs []*program.Program
	for _, name := range []string{"compress", "li"} {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, p)
	}
	shared, err := BuildSharedDictionary(progs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(shared) == 0 {
		t.Fatal("empty shared dictionary")
	}
	for _, p := range progs {
		img, err := CompressFixed(p.Clone(), shared, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(p, img); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if _, _, err := RunBoth(p, img, 200_000_000); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		// Entry order must be exactly the shared dictionary's.
		if len(img.Entries) != len(shared) {
			t.Fatalf("%s: %d entries, want %d", p.Name, len(img.Entries), len(shared))
		}
		for i := range shared {
			if len(img.Entries[i].Words) != len(shared[i].Words) {
				t.Fatalf("%s: entry %d reordered", p.Name, i)
			}
			for j := range shared[i].Words {
				if img.Entries[i].Words[j] != shared[i].Words[j] {
					t.Fatalf("%s: entry %d word %d differs", p.Name, i, j)
				}
			}
		}
	}
}

func TestCompressFixedRejectsOversizedDictionary(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	big := make([]dictionary.Entry, codeword.OneByte.MaxEntries()+1)
	for i := range big {
		big[i] = dictionary.Entry{Words: []uint32{ppc.Addi(3, 3, int32(i))}}
	}
	if _, err := CompressFixed(p.Clone(), big, Options{Scheme: codeword.OneByte}); err == nil {
		t.Fatal("oversized dictionary accepted")
	}
}

func TestSmallDictionaryConfigs(t *testing.T) {
	// §4.1.2: 8/16/32-entry one-byte dictionaries still help.
	p, err := synth.Generate("perl")
	if err != nil {
		t.Fatal(err)
	}
	prev := 2.0
	for _, n := range []int{8, 16, 32} {
		img, err := Compress(p.Clone(), Options{Scheme: codeword.OneByte, MaxEntries: n})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(p, img); err != nil {
			t.Fatal(err)
		}
		if img.Ratio() >= 1.0 {
			t.Errorf("%d entries: ratio %.3f — no benefit", n, img.Ratio())
		}
		if img.Ratio() > prev+1e-9 {
			t.Errorf("ratio rose with more entries: %.4f -> %.4f", prev, img.Ratio())
		}
		prev = img.Ratio()
		if len(img.Entries) > n {
			t.Errorf("dictionary has %d entries, budget %d", len(img.Entries), n)
		}
		dictBytes := codeword.DictBytes(entryLens(img.Entries))
		if dictBytes > codeword.DictHeaderBytes+n*(1+16) {
			t.Errorf("dictionary %d bytes exceeds the small-dictionary bound", dictBytes)
		}
	}
}
