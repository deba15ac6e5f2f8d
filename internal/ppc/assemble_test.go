package ppc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestAssembleDisassembleQuick is the headline property: for every word
// that decodes under the subset, assembling its disassembly reproduces the
// word bit for bit.
func TestAssembleDisassembleQuick(t *testing.T) {
	f := func(w uint32) bool {
		if !Valid(w) {
			return true
		}
		s := Disassemble(w)
		back, err := Assemble(s)
		if err != nil {
			t.Logf("Assemble(%q) from %08x: %v", s, w, err)
			return false
		}
		if back != w {
			t.Logf("%08x -> %q -> %08x", w, s, back)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50000, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// builderWords holds one builder-constructed word of every form, covering
// forms random words hit rarely.
var builderWords = []uint32{
	Addi(3, 4, -12), Li(9, 200), Lis(12, 0x7fff), Addis(5, 6, -1),
	Ori(4, 5, 0xffff), Oris(4, 5, 0x1234), AndiRc(7, 8, 0xff), Xori(1, 2, 3),
	Nop(), Cmpwi(1, 0, 8), Cmplwi(1, 11, 7), Cmpw(0, 3, 4), Cmplw(7, 30, 31),
	Lwz(9, 4, 28), Lbz(9, 0, 28), Lhz(3, -2, 1), Stw(18, 0, 28), Stb(18, 0, 28),
	Sth(0, 100, 1), Stwu(1, -64, 1), Lmw(29, 52, 1), Stmw(29, 52, 1),
	Lwzx(3, 4, 5), Stwx(3, 4, 5),
	Add(0, 11, 1), Subf(3, 4, 5), Neg(3, 3), Mullw(3, 4, 5), Divw(3, 4, 5),
	And(3, 4, 5), Or(3, 4, 5), Mr(31, 3), Xor(3, 4, 5), Nor(3, 4, 4),
	Slw(3, 4, 5), Srw(3, 4, 5), Sraw(3, 4, 5), Srawi(3, 4, 2),
	Extsb(3, 4), Extsh(3, 4),
	Rlwinm(11, 9, 3, 5, 28), Clrlwi(11, 9, 24), Slwi(4, 4, 2), Srwi(4, 4, 2),
	B(0x1000), B(-0x1000), Bl(0x400),
	Ble(1, 0x40), Bgt(1, -0x40), Beq(0, 8), Bne(0, -8), Blt(2, 1024), Bge(2, -1024),
	Bdnz(-16), Bc(BoAlways, 0, 8),
	Blr(), Bctr(), Bctrl(),
	Mflr(0), Mtlr(0), Mfctr(12), Mtctr(12), Sc(),
	// Rc forms.
	Add(1, 2, 3) | 1, Or(4, 5, 6) | 1, Srawi(7, 8, 3) | 1, Rlwinm(1, 2, 3, 4, 5) | 1,
	// Data word.
	0x00000000,
}

// TestAssembleBuilders round-trips every builder-constructed instruction.
func TestAssembleBuilders(t *testing.T) {
	for _, w := range builderWords {
		s := Disassemble(w)
		back, err := Assemble(s)
		if err != nil {
			t.Errorf("Assemble(%q): %v", s, err)
			continue
		}
		if back != w {
			t.Errorf("%08x -> %q -> %08x", w, s, back)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"",
		"frobnicate r1,r2",
		"addi r1,r2",        // missing operand
		"addi r1,r2,r3",     // register where immediate expected
		"addi r99,r2,3",     // bad register
		"lwz r1,4(x2)",      // bad base register
		"lwz r1,4",          // missing parens
		"cmpwi r1,r2,3",     // cr field missing
		"b 0x10",            // relative branch needs .± syntax
		"ba 0x3",            // unaligned absolute
		"bdnz .+0x3",        // unaligned displacement
		".long zzz",         //
		"li r1,0x1ffffffff", // out of range
		// Fields too wide for their encoding are rejected, not masked.
		"srawi r3,r4,33",
		"rlwinm r3,r4,40,0,31",
		"clrlwi r3,r4,32",
		"bc 40,1,.+0x8",
		"bclr 36,0",
		"mfspr r3,70000",
	}
	for _, s := range bad {
		if _, err := Assemble(s); err == nil {
			t.Errorf("Assemble(%q) accepted", s)
		}
	}
}

func TestAssembleAll(t *testing.T) {
	src := `
# a tiny routine
li   r3,0
li   r4,5
mtctr r4
add  r3,r3,r4    # accumulate
addi r4,r4,-1
bdnz .-0x8
blr
`
	words, err := AssembleAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 7 {
		t.Fatalf("assembled %d instructions", len(words))
	}
	if words[0] != Li(3, 0) || words[6] != Blr() {
		t.Fatal("wrong encodings")
	}
	if _, err := AssembleAll("nop\nbogus r1\n"); err == nil {
		t.Fatal("bad line accepted")
	}
}

func TestAssembleWhitespaceTolerance(t *testing.T) {
	for _, s := range []string{"  add   r1, r2 , r3  ", "add r1,r2,r3"} {
		w, err := Assemble(s)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if w != Add(1, 2, 3) {
			t.Fatalf("%q -> %08x", s, w)
		}
	}
}
