// Conservation tests: for every synthetic benchmark under every encoding,
// the audit's attributed bits must sum to exactly the compressed image
// size with nothing unattributed — the package's central invariant. The
// dictionary schemes additionally assert that the live emitter threaded
// through core.Compress and the marks-based reconstruction from the
// finished image agree row for row.
package sizeaudit_test

import (
	"reflect"
	"testing"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/lzw"
	"repro/internal/sizeaudit"
	"repro/internal/synth"
)

var dictSchemes = []codeword.Scheme{
	codeword.Baseline, codeword.OneByte, codeword.Nibble, codeword.Liao,
}

func TestConservationDictionarySchemes(t *testing.T) {
	for _, name := range synth.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := synth.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range dictSchemes {
				em := sizeaudit.NewProgramEmitter(p)
				img, err := core.Compress(p.Clone(), core.Options{
					Scheme: s, MaxEntryLen: 4, Audit: em,
				})
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				live := em.Finish(img.Name, s.String(), img.CompressedBytes(), img.OriginalBytes)
				if err := live.Check(); err != nil {
					t.Errorf("%v live emitter: %v", s, err)
				}
				rebuilt, err := img.SizeAudit()
				if err != nil {
					t.Fatalf("%v SizeAudit: %v", s, err)
				}
				if err := rebuilt.Check(); err != nil {
					t.Errorf("%v reconstruction: %v", s, err)
				}
				if !reflect.DeepEqual(live, rebuilt) {
					t.Errorf("%v: live audit and marks reconstruction disagree\nlive:    %+v\nrebuilt: %+v",
						s, live, rebuilt)
				}
			}
		})
	}
}

func TestConservationCCRP(t *testing.T) {
	for _, name := range synth.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := synth.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			em := sizeaudit.NewProgramEmitter(p)
			img, err := huffman.BuildCCRPImage(p, nil, em)
			if err != nil {
				t.Fatal(err)
			}
			a := em.Finish(name, "ccrp", img.CompressedBytes(), p.SizeBytes())
			if err := a.Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestConservationLZW(t *testing.T) {
	for _, name := range synth.BenchmarkNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := synth.Generate(name)
			if err != nil {
				t.Fatal(err)
			}
			em := sizeaudit.NewProgramEmitter(p)
			out := lzw.CompressAudited(p.TextBytes(), nil, em)
			a := em.Finish(name, "lzw", len(out), p.SizeBytes())
			if err := a.Check(); err != nil {
				t.Fatal(err)
			}
			// The audited path must not perturb the encoding.
			plain := lzw.Compress(p.TextBytes())
			if len(plain) != len(out) {
				t.Fatalf("audited output %d bytes, plain %d", len(out), len(plain))
			}
		})
	}
}

func TestAuditProgramNative(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	a := sizeaudit.AuditProgram(p)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	totals := a.ClassTotals()
	if got, want := totals[sizeaudit.Raw], int64(p.SizeBytes())*8; got != want {
		t.Fatalf("native raw bits %d, want %d", got, want)
	}
	for _, c := range sizeaudit.Classes() {
		if c != sizeaudit.Raw && totals[c] != 0 {
			t.Fatalf("native audit has %d %v bits", totals[c], c)
		}
	}
}
