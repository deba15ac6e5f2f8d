package core

import (
	"bytes"
	"testing"

	"repro/internal/codeword"
	"repro/internal/machine"
	"repro/internal/ppc"
	"repro/internal/synth"
)

func TestPredecodeMatchesReader(t *testing.T) {
	// Every slot of the predecoded table must describe exactly what
	// codeword.Reader.At decodes at that unit offset — including interior
	// offsets of multi-unit items, which the compressed PC space can
	// legally address.
	for _, scheme := range []codeword.Scheme{
		codeword.Baseline, codeword.OneByte, codeword.Nibble, codeword.Liao,
	} {
		img, _ := compress(t, "compress", scheme)
		pd := img.Predecode()
		if pd != img.Predecode() {
			t.Fatalf("%v: table not cached on the image", scheme)
		}
		if pd.Base != img.Base || pd.Shift != 0 || len(pd.Slots) != img.Units {
			t.Fatalf("%v: table shape base=%#x shift=%d slots=%d", scheme, pd.Base, pd.Shift, len(pd.Slots))
		}
		rdr := codeword.NewReader(img.Scheme, img.Stream, img.Units)
		f := NewCompressedFrontend(img)
		unitBits := img.Scheme.UnitBits()
		for u := 0; u < img.Units; u++ {
			s := pd.Slots[u]
			it, err := rdr.At(u)
			if err != nil {
				if !s.Fault {
					t.Fatalf("%v: unit %d: reader faults (%v), slot does not", scheme, u, err)
				}
				continue
			}
			wantNext := img.Base + uint32(u+it.Units)
			wantMem := uint8((it.Units*unitBits + 7) / 8)
			if !it.IsCodeword {
				inst := ppc.Decode(it.Word)
				if inst.Op == ppc.OpInvalid {
					if !s.Fault {
						t.Fatalf("%v: unit %d: invalid raw word not a Fault slot", scheme, u)
					}
					continue
				}
				want := machine.Resolve(inst, f.RelTarget(img.Base+uint32(u), inst.Imm>>2), true)
				if s.Fault || s.Inst != want || s.Word != it.Word || s.Next != wantNext || int(s.Succ) != it.Units ||
					s.Rank != -1 || s.EntryLen != 1 || s.MemBytes != wantMem {
					t.Fatalf("%v: unit %d: raw slot %+v, item %+v", scheme, u, s, it)
				}
				continue
			}
			if it.Rank >= len(img.Entries) || len(img.Entries[it.Rank].Words) == 0 {
				// A torn decode can read a rank the dictionary does not
				// have; the slow path owns that fault.
				if !s.Fault {
					t.Fatalf("%v: unit %d: rank %d beyond dictionary not a Fault slot", scheme, u, it.Rank)
				}
				continue
			}
			words := img.Entries[it.Rank].Words
			if s.Fault {
				t.Fatalf("%v: unit %d: decodable codeword marked Fault", scheme, u)
			}
			head := ppc.Decode(words[0])
			want := machine.Resolve(head, f.RelTarget(img.Base+uint32(u), head.Imm>>2), len(words) == 1)
			if s.Rank != int32(it.Rank) || int(s.EntryLen) != len(words) || s.Word != words[0] || int(s.Succ) != it.Units ||
				s.Next != wantNext || s.MemBytes != wantMem || s.Inst != want {
				t.Fatalf("%v: unit %d: codeword slot %+v, item %+v", scheme, u, s, it)
			}
			e := pd.Entries[it.Rank]
			if len(e.Insts) != len(words) {
				t.Fatalf("%v: entry %d cache holds %d insts for %d words", scheme, it.Rank, len(e.Insts), len(words))
			}
			for k, w := range words {
				if e.Words[k] != w || e.Insts[k] != machine.Resolve(ppc.Decode(w), 0, k == len(words)-1) {
					t.Fatalf("%v: entry %d word %d cached wrong", scheme, it.Rank, k)
				}
			}
		}
	}
}

func TestFastSlowParityCompressed(t *testing.T) {
	// A bare compressed machine (fused fast loop) and a hooked one
	// (instrumented Step path) over the same image must agree on
	// everything the architecture defines, with expansion exercised.
	for _, scheme := range []codeword.Scheme{codeword.Baseline, codeword.Nibble} {
		img, _ := compress(t, "compress", scheme)
		fast, err := NewMachine(img)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewMachine(img)
		if err != nil {
			t.Fatal(err)
		}
		var hooked int64
		slow.TraceStep = func(machine.StepInfo) { hooked++ }
		fs, ferr := fast.Run(50_000_000)
		ss, serr := slow.Run(50_000_000)
		if ferr != nil || serr != nil {
			t.Fatalf("%v: run errors: fast %v, slow %v", scheme, ferr, serr)
		}
		if fs != ss {
			t.Fatalf("%v: status fast %d, slow %d", scheme, fs, ss)
		}
		if !bytes.Equal(fast.Output(), slow.Output()) {
			t.Fatalf("%v: outputs differ (%d vs %d bytes)", scheme, len(fast.Output()), len(slow.Output()))
		}
		if fast.Stats != slow.Stats {
			t.Fatalf("%v: stats fast %+v, slow %+v", scheme, fast.Stats, slow.Stats)
		}
		if hooked != slow.Stats.Steps || hooked == 0 {
			t.Fatalf("%v: TraceStep fired %d times for %d steps", scheme, hooked, slow.Stats.Steps)
		}
		if fast.Stats.Expanded == 0 {
			t.Fatalf("%v: no dictionary expansion exercised", scheme)
		}
	}
}

func TestMidItemJumpParity(t *testing.T) {
	// Jump into the interior of a multi-unit item: SetPC accepts any
	// in-range unit address, and what lives there is a torn decode the
	// slow path resolves positionally. The fast path must produce the
	// byte-identical outcome, whether that is an error or a (garbage but
	// deterministic) execution.
	img, _ := compress(t, "compress", codeword.Nibble)
	rdr := codeword.NewReader(img.Scheme, img.Stream, img.Units)
	mid := uint32(0)
	found := false
	for u := 0; u < img.Units; {
		it, err := rdr.At(u)
		if err != nil {
			break
		}
		if it.Units > 1 {
			mid = img.Base + uint32(u) + 1
			found = true
			break
		}
		u += it.Units
	}
	if !found {
		t.Skip("no multi-unit item in the stream")
	}
	type outcome struct {
		status int32
		errStr string
		out    string
		stats  machine.Stats
	}
	run := func(hook bool) outcome {
		cpu, err := NewMachine(img)
		if err != nil {
			t.Fatal(err)
		}
		if hook {
			cpu.TraceStep = func(machine.StepInfo) {}
		}
		if err := cpu.Frontend().SetPC(mid); err != nil {
			t.Fatalf("mid-item SetPC rejected: %v", err)
		}
		st, err := cpu.Run(5000)
		o := outcome{status: st, out: string(cpu.Output()), stats: cpu.Stats}
		if err != nil {
			o.errStr = err.Error()
		}
		return o
	}
	if fast, slow := run(false), run(true); fast != slow {
		t.Fatalf("mid-item divergence at %#x:\nfast %+v\nslow %+v", mid, fast, slow)
	}
}

func TestPredecodeUnavailable(t *testing.T) {
	img, _ := compress(t, "compress", codeword.Nibble)
	fe := NewCompressedFrontend(img)
	if fe.Predecode() == nil {
		t.Fatal("fresh frontend refused to predecode")
	}

	// Mid-expansion, the queue holds state a table restart would drop.
	// A fetch-walk index cannot predict where the machine parks: a taken
	// branch as the budgeted instruction drops the queue via SetPC. So
	// budget an instrumented machine out one step at a time until ITS OWN
	// frontend refuses the table.
	mcpu, err := NewMachine(img)
	if err != nil {
		t.Fatal(err)
	}
	mcpu.TraceStep = func(machine.StepInfo) {}
	mfe := mcpu.Frontend().(machine.PredecodedFrontend)
	parked := false
	for k := int64(1); k <= 5000; k++ {
		if _, err := mcpu.Run(k); err == nil {
			break // program exited before parking mid-expansion
		}
		if mfe.Predecode() == nil {
			parked = true
			break
		}
	}
	if !parked {
		t.Skip("no step budget parks this program mid-expansion")
	}
	// Run-level visibility: detach the hook, and the resumed Run is
	// refused the table — counted, not silent.
	mcpu.TraceStep = nil
	if _, err := mcpu.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if got := mcpu.Fast.Bails[machine.BailFrontendRefused]; got != 1 {
		t.Fatalf("frontend_refused bail %d after mid-expansion resume (bails: %s)",
			got, mcpu.Fast.BailSummary())
	}
	if mcpu.Fast.Steps != 0 {
		t.Fatalf("mid-expansion resume reports fast-path steps: %+v", mcpu.Fast)
	}
}

// TestResolvedBranchTargets: every relative branch in the predecoded
// tables of all eight benchmarks, native and nibble, carries the target
// its frontend's RelTarget computes at the slot's address.
func TestResolvedBranchTargets(t *testing.T) {
	for _, name := range synth.BenchmarkNames() {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		img, err := Compress(p.Clone(), Options{Scheme: codeword.Nibble})
		if err != nil {
			t.Fatal(err)
		}
		for _, fe := range []machine.PredecodedFrontend{
			cpu.Frontend().(machine.PredecodedFrontend), NewCompressedFrontend(img),
		} {
			pd := fe.Predecode()
			branches := 0
			for i, s := range pd.Slots {
				if s.Fault || !ppc.IsRelativeBranch(s.Word) {
					continue
				}
				branches++
				cia := pd.Base + uint32(i)<<pd.Shift
				if want := fe.RelTarget(cia, ppc.Decode(s.Word).Imm>>2); s.Inst.Imm != want {
					t.Fatalf("%s (%T): branch %08x at %#x resolves to %#x, RelTarget %#x",
						name, fe, s.Word, cia, s.Inst.Imm, want)
				}
			}
			if branches == 0 {
				t.Fatalf("%s (%T): no relative branch in the table", name, fe)
			}
		}
	}
}

// TestEntryBranchParity puts relative branches into a dictionary's
// entries, which the compressor never does: at an entry's head (the
// slot resolves it at its own address) and after it (the slot is a Fault
// slot and Step resolves it per fetch). The fused loop and the Step path
// must agree on the outcome either way.
func TestEntryBranchParity(t *testing.T) {
	for _, at := range []int{0, 1} {
		img, _ := compress(t, "compress", codeword.Nibble)
		for i := range img.Entries {
			if w := img.Entries[i].Words; len(w) > at+1 || (at == 0 && len(w) > 0) {
				w = append([]uint32(nil), w...)
				w[at] = ppc.B(int32(4 * (i%5 - 2)))
				img.Entries[i].Words = w
			}
		}
		type outcome struct {
			status int32
			errStr string
			out    string
			stats  machine.Stats
		}
		run := func(hook bool) outcome {
			cpu, err := NewMachine(img)
			if err != nil {
				t.Fatal(err)
			}
			if hook {
				cpu.TraceStep = func(machine.StepInfo) {}
			}
			st, err := cpu.Run(20_000)
			o := outcome{status: st, out: string(cpu.Output()), stats: cpu.Stats}
			if err != nil {
				o.errStr = err.Error()
			}
			return o
		}
		if fast, slow := run(false), run(true); fast != slow {
			t.Fatalf("branch at entry position %d:\nfast %+v\nslow %+v", at, fast, slow)
		}
	}
}
