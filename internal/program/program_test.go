package program

import (
	"encoding/binary"
	"testing"

	"repro/internal/ppc"
)

// buildToy links a small two-function module exercising local branches,
// calls and a jump table.
func buildToy(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder("toy")

	main := b.Func("main")
	main.BeginPrologue()
	main.Emit(ppc.Mflr(0))
	main.Emit(ppc.Stw(0, 8, 1))
	main.Emit(ppc.Stwu(1, -32, 1))
	main.EndPrologue()
	main.Emit(ppc.Li(3, 2))
	main.Call("helper")
	main.Emit(ppc.Cmpwi(0, 3, 0))
	main.Branch(ppc.Beq(0, 0), "skip")
	main.Emit(ppc.Li(4, 1))
	main.Label("skip")
	main.JumpTable(3, 11, 12, []string{"case0", "case1", "skip"})
	main.Label("case0")
	main.Emit(ppc.Li(5, 10))
	main.Branch(ppc.B(0), "done")
	main.Label("case1")
	main.Emit(ppc.Li(5, 20))
	main.Label("done")
	main.BeginEpilogue()
	main.Emit(ppc.Addi(1, 1, 32))
	main.Emit(ppc.Lwz(0, 8, 1))
	main.Emit(ppc.Mtlr(0))
	main.Emit(ppc.Blr())
	main.EndEpilogue()

	helper := b.Func("helper")
	helper.Emit(ppc.Addi(3, 3, 1))
	helper.Emit(ppc.Blr())

	p, err := b.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	return p
}

func TestLinkResolvesBranches(t *testing.T) {
	p := buildToy(t)

	// Find the bl and check it targets helper's entry.
	helperStart := -1
	for _, s := range p.Symbols {
		if s.Name == "helper" {
			helperStart = s.Word
		}
	}
	if helperStart < 0 {
		t.Fatal("helper symbol missing")
	}
	found := false
	for i, w := range p.Text {
		if ppc.IsCall(w) && ppc.IsRelativeBranch(w) {
			disp, _ := ppc.RelDisplacement(w)
			if i+int(disp)/4 == helperStart {
				found = true
			}
		}
	}
	if !found {
		t.Error("bl to helper not resolved")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestJumpTableResolution(t *testing.T) {
	p := buildToy(t)
	if len(p.JumpTableSlots) != 3 {
		t.Fatalf("expected 3 jump-table slots, got %d", len(p.JumpTableSlots))
	}
	targets, err := p.JumpTableTargets()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range targets {
		if w <= 0 || w >= len(p.Text) {
			t.Errorf("jump table target %d out of range", w)
		}
	}
	// All three targets must be distinct except where labels coincide;
	// case0 != case1.
	if targets[0] == targets[1] {
		t.Error("case0 and case1 resolved to the same word")
	}
	// Slots hold absolute addresses.
	addr := binary.BigEndian.Uint32(p.Data[p.JumpTableSlots[0]:])
	if addr < p.TextBase {
		t.Errorf("slot contains %#x, below text base", addr)
	}
}

func TestAnalyzeLeaders(t *testing.T) {
	p := buildToy(t)
	a, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Leader[0] {
		t.Error("word 0 not a leader")
	}
	// Every relative branch target must be a leader.
	for i, w := range p.Text {
		if ppc.IsRelativeBranch(w) {
			disp, _ := ppc.RelDisplacement(w)
			if !a.Leader[i+int(disp)/4] {
				t.Errorf("branch target of word %d not a leader", i)
			}
			if i+1 < len(p.Text) && !a.Leader[i+1] {
				t.Errorf("fall-through after branch at %d not a leader", i)
			}
		}
	}
	// Jump table targets are leaders.
	jts, _ := p.JumpTableTargets()
	for _, w := range jts {
		if !a.Leader[w] {
			t.Errorf("jump table target %d not a leader", w)
		}
	}
	// Blocks tile the program exactly.
	blocks := a.Blocks()
	covered := 0
	prevEnd := 0
	for _, blk := range blocks {
		if blk.Start != prevEnd {
			t.Fatalf("blocks not contiguous at %d", blk.Start)
		}
		if blk.Len() <= 0 {
			t.Fatalf("empty block %+v", blk)
		}
		covered += blk.Len()
		prevEnd = blk.End
	}
	if covered != len(p.Text) {
		t.Errorf("blocks cover %d of %d words", covered, len(p.Text))
	}
	if a.BlockCount() != len(blocks) {
		t.Errorf("BlockCount %d != len(Blocks) %d", a.BlockCount(), len(blocks))
	}

	// §3.2.1 compressibility: relative branches (their offsets are
	// rewritten) and link-setting branches (a return into a dictionary
	// entry is unaddressable) stay out of the dictionary; a return and an
	// ALU word may be compressed.
	cases := []struct {
		name         string
		word         uint32
		compressible bool
	}{
		{"add", ppc.Add(3, 4, 5), true},
		{"b", ppc.B(-4), false},
		{"bl", ppc.Bl(-8), false},
		{"bctrl", ppc.Bctrl(), false},
		{"blr", ppc.Blr(), true},
	}
	q := &Program{}
	for _, c := range cases {
		q.Text = append(q.Text, c.word)
	}
	qa, err := Analyze(q)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		if qa.Compressible[i] != c.compressible {
			t.Errorf("%s: Compressible %v, want %v", c.name, qa.Compressible[i], c.compressible)
		}
	}
}

func TestPrologueEpilogueRanges(t *testing.T) {
	p := buildToy(t)
	if len(p.Prologue) != 1 || len(p.Epilogue) != 1 {
		t.Fatalf("markers: %d prologue, %d epilogue", len(p.Prologue), len(p.Epilogue))
	}
	if p.Prologue[0].Len() != 3 {
		t.Errorf("prologue length %d, want 3", p.Prologue[0].Len())
	}
	if p.Epilogue[0].Len() != 4 {
		t.Errorf("epilogue length %d, want 4", p.Epilogue[0].Len())
	}
	// Epilogue ends with blr.
	last := p.Text[p.Epilogue[0].End-1]
	if !ppc.IsIndirectBranch(last) {
		t.Errorf("epilogue does not end in blr: %s", ppc.Disassemble(last))
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := buildToy(t)
	q := p.Clone()
	q.Text[0] = 0xDEADBEEF
	if p.Text[0] == 0xDEADBEEF {
		t.Error("Clone shares text")
	}
	if len(q.Data) > 0 {
		q.Data[0] ^= 0xFF
		if len(p.Data) > 0 && p.Data[0] == q.Data[0] {
			t.Error("Clone shares data")
		}
	}
}

func TestTextBytesBigEndian(t *testing.T) {
	p := buildToy(t)
	bs := p.TextBytes()
	if len(bs) != 4*len(p.Text) {
		t.Fatalf("TextBytes length %d", len(bs))
	}
	w0 := binary.BigEndian.Uint32(bs)
	if w0 != p.Text[0] {
		t.Errorf("first word %08x != %08x", w0, p.Text[0])
	}
}

func TestAddrConversions(t *testing.T) {
	p := buildToy(t)
	for _, idx := range []int{0, 1, len(p.Text) - 1} {
		addr := p.WordAddr(idx)
		back, err := p.AddrWord(addr)
		if err != nil || back != idx {
			t.Errorf("AddrWord(WordAddr(%d)) = %d, %v", idx, back, err)
		}
	}
	if _, err := p.AddrWord(p.TextBase - 4); err == nil {
		t.Error("address below text accepted")
	}
	if _, err := p.AddrWord(p.TextBase + 1); err == nil {
		t.Error("unaligned address accepted")
	}
}

func TestLinkErrors(t *testing.T) {
	t.Run("undefined label", func(t *testing.T) {
		b := NewBuilder("bad")
		f := b.Func("f")
		f.Branch(ppc.B(0), "nowhere")
		if _, err := b.Link(); err == nil {
			t.Error("expected error for undefined label")
		}
	})
	t.Run("undefined callee", func(t *testing.T) {
		b := NewBuilder("bad")
		f := b.Func("f")
		f.Call("ghost")
		f.Emit(ppc.Blr())
		if _, err := b.Link(); err == nil {
			t.Error("expected error for undefined callee")
		}
	})
	t.Run("bad entry", func(t *testing.T) {
		b := NewBuilder("bad")
		f := b.Func("f")
		f.Emit(ppc.Blr())
		b.SetEntry("ghost")
		if _, err := b.Link(); err == nil {
			t.Error("expected error for bad entry")
		}
	})
	t.Run("unclosed marker", func(t *testing.T) {
		b := NewBuilder("bad")
		f := b.Func("f")
		f.BeginPrologue()
		f.Emit(ppc.Blr())
		if _, err := b.Link(); err == nil {
			t.Error("expected error for unclosed marker")
		}
	})
	t.Run("duplicate function", func(t *testing.T) {
		b := NewBuilder("bad")
		b.Func("f")
		defer func() {
			if recover() == nil {
				t.Error("expected panic on duplicate function")
			}
		}()
		b.Func("f")
	})
	t.Run("duplicate label", func(t *testing.T) {
		b := NewBuilder("bad")
		f := b.Func("f")
		f.Label("x")
		defer func() {
			if recover() == nil {
				t.Error("expected panic on duplicate label")
			}
		}()
		f.Label("x")
	})
}

func TestValidateCatchesCorruption(t *testing.T) {
	p := buildToy(t)
	// Corrupt a jump-table slot to point outside text.
	binary.BigEndian.PutUint32(p.Data[p.JumpTableSlots[0]:], 0x4)
	if err := p.Validate(); err == nil {
		t.Error("Validate accepted corrupted jump table")
	}
}

func TestSymbolAt(t *testing.T) {
	p := buildToy(t)
	if p.SymbolAt(0) != "main" {
		t.Errorf("SymbolAt(0) = %q", p.SymbolAt(0))
	}
	if p.SymbolAt(1) != "" {
		t.Errorf("SymbolAt(1) = %q", p.SymbolAt(1))
	}
}
