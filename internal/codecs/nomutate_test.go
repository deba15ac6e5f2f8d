package codecs

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/codec"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/program"
	"repro/internal/synth"
)

// TestCompressionLeavesProgramAlone is what lets callers compress a
// program without cloning it first: every registered codec's Compress,
// core.CompressFixed and core.BuildSharedDictionary must leave their input
// deeply equal to a clone taken before the call, and what they return must
// share no memory with it — after the program's text, data, jump-table
// slots and symbols are overwritten, the result serializes to the same
// bytes as before.
func TestCompressionLeavesProgramAlone(t *testing.T) {
	orig, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.JumpTableSlots) == 0 {
		t.Fatal("compress has no jump tables to patch")
	}
	// check runs compress on a fresh copy of the program and requires the
	// copy unchanged, then requires serialize to read the same after the
	// copy is scribbled over.
	check := func(name string, compress func(p *program.Program) (serialize func() []byte, err error)) {
		t.Helper()
		p := orig.Clone()
		serialize, err := compress(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(p, orig) {
			t.Errorf("%s wrote to its program", name)
		}
		before := serialize()
		scribble(p)
		if after := serialize(); !bytes.Equal(before, after) {
			t.Errorf("%s: result shares memory with its program (serialization changed)", name)
		}
	}

	for _, cd := range codec.Codecs() {
		cd := cd
		check(cd.Name()+" Compress", func(p *program.Program) (func() []byte, error) {
			img, err := cd.Compress(p, codec.Options{})
			if err != nil {
				return nil, err
			}
			return func() []byte {
				var buf bytes.Buffer
				if err := cd.WriteImage(&buf, img); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}, nil
		})
	}

	opt := core.Options{Scheme: codeword.Baseline, MaxEntryLen: 4}
	other, err := synth.Generate("li")
	if err != nil {
		t.Fatal(err)
	}
	var shared []dictionary.Entry
	check("BuildSharedDictionary", func(p *program.Program) (func() []byte, error) {
		entries, err := core.BuildSharedDictionary([]*program.Program{p, other}, opt)
		shared = entries
		return func() []byte {
			var buf bytes.Buffer
			for _, e := range entries {
				for _, w := range e.Words {
					buf.Write([]byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)})
				}
			}
			return buf.Bytes()
		}, err
	})
	check("CompressFixed", func(p *program.Program) (func() []byte, error) {
		img, err := core.CompressFixed(p, shared, opt)
		return func() []byte {
			var buf bytes.Buffer
			if err := core.WriteImagePayload(&buf, img); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}, err
	})
}

// scribble overwrites every word, byte, slot and symbol of p in place.
func scribble(p *program.Program) {
	for i := range p.Text {
		p.Text[i] = ^p.Text[i]
	}
	for i := range p.Data {
		p.Data[i] = ^p.Data[i]
	}
	for i := range p.JumpTableSlots {
		p.JumpTableSlots[i] = -1
	}
	for i := range p.Symbols {
		p.Symbols[i] = program.Symbol{Name: "scribbled", Word: -1}
	}
}
