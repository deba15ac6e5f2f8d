package ppc

import (
	"fmt"
	"strconv"
	"strings"
)

// The subset's textual syntax is one table, read forwards by Disassemble
// and backwards by Assemble. Each entry is one mnemonic: its Op and the
// fields it fixes, and the operands it shows, in print order. An entry
// matches a decoded word when its fixed fields plus the word's operand
// fields encode back to that word, so the simplified forms (li, nop, mr,
// blr, beq, …) stand ahead of the generic form they specialise and
// Disassemble prints the first entry that matches.

// kind is an operand's text form. Each prints a value and parses it back,
// rejecting a value its field cannot hold.
type kind uint8

const (
	kReg  kind = iota // rN
	kCR               // crN
	kSimm             // signed 16-bit immediate
	kUimm             // unsigned 16-bit immediate
	kU5               // 5-bit number: BO, BI, shift and mask bounds
	kSPR              // 10-bit special-purpose register number
	kDisp             // .+0x… or .-0x…, a byte displacement from this instruction
	kAbs              // 0x…, an absolute branch target
	kMem              // d(rA): a signed displacement in Imm and a base register in RA
)

// field names where an operand's value lives in an Inst. The last four
// are not plain fields: fCR is the CR field of BI (the bit within it is
// fixed by the entry), fRS2 is mr's source in both RT and RB, and fSlwi
// and fSrwi spread slwi's and srwi's shift count over rlwinm's fields.
type field uint8

const (
	fRT field = iota
	fRA
	fRB
	fCRF
	fBO
	fBI
	fSH
	fMB
	fME
	fSPR
	fImm
	fCR
	fRS2
	fSlwi
	fSrwi
)

func (f field) get(i Inst) int64 {
	switch f {
	case fRT, fRS2:
		return int64(i.RT)
	case fRA:
		return int64(i.RA)
	case fRB:
		return int64(i.RB)
	case fCRF:
		return int64(i.CRF)
	case fBO:
		return int64(i.BO)
	case fBI:
		return int64(i.BI)
	case fSH, fSlwi:
		return int64(i.SH)
	case fMB, fSrwi:
		return int64(i.MB)
	case fME:
		return int64(i.ME)
	case fSPR:
		return int64(i.SPR)
	case fCR:
		return int64(i.BI >> 2)
	}
	return int64(i.Imm)
}

func (f field) set(i *Inst, v int64) {
	switch f {
	case fRT:
		i.RT = uint8(v)
	case fRA:
		i.RA = uint8(v)
	case fRB:
		i.RB = uint8(v)
	case fCRF:
		i.CRF = uint8(v)
	case fBO:
		i.BO = uint8(v)
	case fBI:
		i.BI = uint8(v)
	case fSH:
		i.SH = uint8(v)
	case fMB:
		i.MB = uint8(v)
	case fME:
		i.ME = uint8(v)
	case fSPR:
		i.SPR = uint16(v)
	case fCR:
		i.BI = i.BI&3 | uint8(v)<<2
	case fRS2:
		i.RT, i.RB = uint8(v), uint8(v)
	case fSlwi: // rlwinm rA,rS,n,0,31-n
		i.SH, i.ME = uint8(v), uint8(31-v)
	case fSrwi: // rlwinm rA,rS,32-n,n,31
		i.MB, i.SH = uint8(v), uint8(32-v)&31
	default:
		i.Imm = int32(v)
	}
}

// operand is one operand of a mnemonic: its text form and its field.
type operand struct {
	kind  kind
	field field
}

// The operands the table draws from.
var (
	rT    = operand{kReg, fRT}
	rA    = operand{kReg, fRA}
	rB    = operand{kReg, fRB}
	rS2   = operand{kReg, fRS2}
	crD   = operand{kCR, fCRF}
	crBI  = operand{kCR, fCR}
	simm  = operand{kSimm, fImm}
	uimm  = operand{kUimm, fImm}
	mem   = operand{kMem, fImm}
	disp  = operand{kDisp, fImm}
	abs   = operand{kAbs, fImm}
	bo    = operand{kU5, fBO}
	bi    = operand{kU5, fBI}
	sh    = operand{kU5, fSH}
	mb    = operand{kU5, fMB}
	me    = operand{kU5, fME}
	nSlwi = operand{kU5, fSlwi}
	nSrwi = operand{kU5, fSrwi}
	spr   = operand{kSPR, fSPR}
)

func (o operand) format(i Inst) string {
	v := o.field.get(i)
	switch o.kind {
	case kReg:
		return fmt.Sprintf("r%d", v)
	case kCR:
		return fmt.Sprintf("cr%d", v)
	case kDisp:
		if v < 0 {
			return fmt.Sprintf(".-0x%x", -v)
		}
		return fmt.Sprintf(".+0x%x", v)
	case kAbs:
		return fmt.Sprintf("0x%x", uint32(v))
	case kMem:
		return fmt.Sprintf("%d(r%d)", v, i.RA)
	}
	return strconv.FormatInt(v, 10)
}

// copy moves the operand's value from src to dst.
func (o operand) copy(dst *Inst, src Inst) {
	if o.kind == kMem {
		dst.RA = src.RA
	}
	o.field.set(dst, o.field.get(src))
}

func (o operand) parse(s string, i *Inst) error {
	if o.kind == kMem {
		open := strings.IndexByte(s, '(')
		if open < 0 || !strings.HasSuffix(s, ")") {
			return fmt.Errorf("expected d(rA), got %q", s)
		}
		if err := rA.parse(s[open+1:len(s)-1], i); err != nil {
			return err
		}
		s = s[:open]
		o = simm
	}
	v, err := o.kind.parse(s)
	if err != nil {
		return err
	}
	o.field.set(i, v)
	return nil
}

func (k kind) parse(s string) (int64, error) {
	switch k {
	case kReg:
		return number(s, "r", "register", 0, 31)
	case kCR:
		return number(s, "cr", "condition field", 0, 7)
	case kSimm:
		return number(s, "", "signed immediate", -1<<15, 1<<15-1)
	case kUimm:
		return number(s, "", "unsigned immediate", 0, 1<<16-1)
	case kU5:
		return number(s, "", "5-bit field", 0, 31)
	case kSPR:
		return number(s, "", "SPR number", 0, 1<<10-1)
	case kDisp:
		sign := int64(1)
		if strings.HasPrefix(s, ".-") {
			sign = -1
		} else if !strings.HasPrefix(s, ".+") {
			return 0, fmt.Errorf("bad displacement %q (want .+0x… or .-0x…)", s)
		}
		// 31 bits cannot wrap; Encode checks the branch's own reach.
		v, err := strconv.ParseUint(s[2:], 0, 31)
		if err != nil {
			return 0, fmt.Errorf("bad displacement %q", s)
		}
		return sign * int64(v), nil
	}
	// kAbs: any 32-bit address; Encode checks the branch's reach.
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad absolute target %q", s)
	}
	return int64(int32(uint32(v))), nil
}

// number parses prefix followed by an integer in [lo, hi]; a numbered
// register or CR field is decimal, an immediate takes any Go base prefix.
func number(s, prefix, what string, lo, hi int64) (int64, error) {
	if !strings.HasPrefix(s, prefix) {
		return 0, fmt.Errorf("expected %s, got %q", what, s)
	}
	base := 0
	if prefix != "" {
		base = 10
	}
	v, err := strconv.ParseInt(s[len(prefix):], base, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", what, s)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s %q out of range [%d, %d]", what, s, lo, hi)
	}
	return v, nil
}

// syntax is one mnemonic of the table.
type syntax struct {
	name string
	fix  Inst // Op and the fields the mnemonic fixes; any other field not shown is zero
	ops  []operand
	rc   bool // also spelt name+"." with Rc set
}

func form(name string, fix Inst, ops ...operand) syntax {
	return syntax{name: name, fix: fix, ops: ops}
}

func dotForm(name string, fix Inst, ops ...operand) syntax {
	return syntax{name: name, fix: fix, ops: ops, rc: true}
}

var syntaxes = []syntax{
	form("li", Inst{Op: OpAddi}, rT, simm),
	form("addi", Inst{Op: OpAddi}, rT, rA, simm),
	form("lis", Inst{Op: OpAddis}, rT, simm),
	form("addis", Inst{Op: OpAddis}, rT, rA, simm),
	form("nop", Inst{Op: OpOri}),
	form("ori", Inst{Op: OpOri}, rA, rT, uimm),
	form("oris", Inst{Op: OpOris}, rA, rT, uimm),
	form("andi.", Inst{Op: OpAndiRc}, rA, rT, uimm),
	form("xori", Inst{Op: OpXori}, rA, rT, uimm),
	form("cmpwi", Inst{Op: OpCmpwi}, crD, rA, simm),
	form("cmplwi", Inst{Op: OpCmplwi}, crD, rA, uimm),
	form("cmpw", Inst{Op: OpCmpw}, crD, rA, rB),
	form("cmplw", Inst{Op: OpCmplw}, crD, rA, rB),

	form("lwz", Inst{Op: OpLwz}, rT, mem),
	form("lbz", Inst{Op: OpLbz}, rT, mem),
	form("lhz", Inst{Op: OpLhz}, rT, mem),
	form("stw", Inst{Op: OpStw}, rT, mem),
	form("stb", Inst{Op: OpStb}, rT, mem),
	form("sth", Inst{Op: OpSth}, rT, mem),
	form("stwu", Inst{Op: OpStwu}, rT, mem),
	form("lmw", Inst{Op: OpLmw}, rT, mem),
	form("stmw", Inst{Op: OpStmw}, rT, mem),
	form("lwzx", Inst{Op: OpLwzx}, rT, rA, rB),
	form("stwx", Inst{Op: OpStwx}, rT, rA, rB),
	form("lbzx", Inst{Op: OpLbzx}, rT, rA, rB),
	form("lhzx", Inst{Op: OpLhzx}, rT, rA, rB),
	form("stbx", Inst{Op: OpStbx}, rT, rA, rB),
	form("sthx", Inst{Op: OpSthx}, rT, rA, rB),

	form("b", Inst{Op: OpB}, disp),
	form("bl", Inst{Op: OpB, LK: true}, disp),
	form("ba", Inst{Op: OpB, AA: true}, abs),
	form("bla", Inst{Op: OpB, AA: true, LK: true}, abs),
	form("blt", Inst{Op: OpBc, BO: BoTrue, BI: CrLT}, crBI, disp),
	form("bltl", Inst{Op: OpBc, BO: BoTrue, BI: CrLT, LK: true}, crBI, disp),
	form("bgt", Inst{Op: OpBc, BO: BoTrue, BI: CrGT}, crBI, disp),
	form("bgtl", Inst{Op: OpBc, BO: BoTrue, BI: CrGT, LK: true}, crBI, disp),
	form("beq", Inst{Op: OpBc, BO: BoTrue, BI: CrEQ}, crBI, disp),
	form("beql", Inst{Op: OpBc, BO: BoTrue, BI: CrEQ, LK: true}, crBI, disp),
	form("bge", Inst{Op: OpBc, BO: BoFalse, BI: CrLT}, crBI, disp),
	form("bgel", Inst{Op: OpBc, BO: BoFalse, BI: CrLT, LK: true}, crBI, disp),
	form("ble", Inst{Op: OpBc, BO: BoFalse, BI: CrGT}, crBI, disp),
	form("blel", Inst{Op: OpBc, BO: BoFalse, BI: CrGT, LK: true}, crBI, disp),
	form("bne", Inst{Op: OpBc, BO: BoFalse, BI: CrEQ}, crBI, disp),
	form("bnel", Inst{Op: OpBc, BO: BoFalse, BI: CrEQ, LK: true}, crBI, disp),
	form("bdnz", Inst{Op: OpBc, BO: BoDnz}, disp),
	form("bdnzl", Inst{Op: OpBc, BO: BoDnz, LK: true}, disp),
	form("bc", Inst{Op: OpBc}, bo, bi, disp),
	form("bcl", Inst{Op: OpBc, LK: true}, bo, bi, disp),
	form("bca", Inst{Op: OpBc, AA: true}, bo, bi, abs),
	form("bcla", Inst{Op: OpBc, AA: true, LK: true}, bo, bi, abs),
	form("blr", Inst{Op: OpBclr, BO: BoAlways}),
	form("blrl", Inst{Op: OpBclr, BO: BoAlways, LK: true}),
	form("bclr", Inst{Op: OpBclr}, bo, bi),
	form("bclrl", Inst{Op: OpBclr, LK: true}, bo, bi),
	form("bctr", Inst{Op: OpBcctr, BO: BoAlways}),
	form("bctrl", Inst{Op: OpBcctr, BO: BoAlways, LK: true}),
	form("bcctr", Inst{Op: OpBcctr}, bo, bi),
	form("bcctrl", Inst{Op: OpBcctr, LK: true}, bo, bi),

	dotForm("add", Inst{Op: OpAdd}, rT, rA, rB),
	dotForm("subf", Inst{Op: OpSubf}, rT, rA, rB),
	dotForm("mullw", Inst{Op: OpMullw}, rT, rA, rB),
	dotForm("divw", Inst{Op: OpDivw}, rT, rA, rB),
	dotForm("neg", Inst{Op: OpNeg}, rT, rA),
	dotForm("and", Inst{Op: OpAnd}, rA, rT, rB),
	form("mr", Inst{Op: OpOr}, rA, rS2),
	dotForm("or", Inst{Op: OpOr}, rA, rT, rB),
	dotForm("xor", Inst{Op: OpXor}, rA, rT, rB),
	dotForm("nor", Inst{Op: OpNor}, rA, rT, rB),
	dotForm("slw", Inst{Op: OpSlw}, rA, rT, rB),
	dotForm("srw", Inst{Op: OpSrw}, rA, rT, rB),
	dotForm("sraw", Inst{Op: OpSraw}, rA, rT, rB),
	dotForm("srawi", Inst{Op: OpSrawi}, rA, rT, sh),
	dotForm("extsb", Inst{Op: OpExtsb}, rA, rT),
	dotForm("extsh", Inst{Op: OpExtsh}, rA, rT),
	form("clrlwi", Inst{Op: OpRlwinm, ME: 31}, rA, rT, mb),
	form("slwi", Inst{Op: OpRlwinm}, rA, rT, nSlwi),
	form("srwi", Inst{Op: OpRlwinm, ME: 31}, rA, rT, nSrwi),
	dotForm("rlwinm", Inst{Op: OpRlwinm}, rA, rT, sh, mb, me),

	form("mflr", Inst{Op: OpMfspr, SPR: SprLR}, rT),
	form("mfctr", Inst{Op: OpMfspr, SPR: SprCTR}, rT),
	form("mfspr", Inst{Op: OpMfspr}, rT, spr),
	form("mtlr", Inst{Op: OpMtspr, SPR: SprLR}, rT),
	form("mtctr", Inst{Op: OpMtspr, SPR: SprCTR}, rT),
	form("mtspr", Inst{Op: OpMtspr}, spr, rT),
	form("sc", Inst{Op: OpSc}),
}

var (
	byName = map[string]*syntax{}
	byOp   [opCount][]*syntax
)

func init() {
	for k := range syntaxes {
		s := &syntaxes[k]
		if byName[s.name] != nil {
			panic("ppc: mnemonic " + s.name + " listed twice")
		}
		byName[s.name] = s
		byOp[s.fix.Op] = append(byOp[s.fix.Op], s)
	}
}

// lookup finds mnem's entry; rc reports the record form (name+".").
func lookup(mnem string) (s *syntax, rc bool) {
	if s := byName[mnem]; s != nil {
		return s, false
	}
	if base, ok := strings.CutSuffix(mnem, "."); ok {
		if s := byName[base]; s != nil && s.rc {
			return s, true
		}
	}
	return nil, false
}

// matches reports whether s prints the decoded word w: s's fixed fields
// plus i's operand fields encode back to w.
func (s *syntax) matches(i Inst, w uint32) bool {
	c := s.fix
	if s.rc {
		c.Rc = i.Rc
	}
	for _, o := range s.ops {
		o.copy(&c, i)
	}
	return Encode(c) == w
}

// EndsInDisplacement reports whether mnem's last operand is a .±0x…
// displacement, the operand a source assembler may fill from a label.
func EndsInDisplacement(mnem string) bool {
	s, _ := lookup(mnem)
	return s != nil && len(s.ops) > 0 && s.ops[len(s.ops)-1].kind == kDisp
}

// Disassemble renders an instruction word using standard PowerPC mnemonics,
// including the common simplified forms (li, lis, nop, mr, blr, mflr, …).
// Invalid words render as ".long 0x…" so dumps of mixed code/data and of
// compressed streams stay readable.
func Disassemble(w uint32) string {
	i := Decode(w)
	for _, s := range byOp[i.Op] {
		if !s.matches(i, w) {
			continue
		}
		var sb strings.Builder
		sb.WriteString(s.name)
		if s.rc && i.Rc {
			sb.WriteByte('.')
		}
		for k, o := range s.ops {
			if k == 0 {
				sb.WriteByte(' ')
			} else {
				sb.WriteByte(',')
			}
			sb.WriteString(o.format(i))
		}
		return sb.String()
	}
	return fmt.Sprintf(".long 0x%08x", w)
}

// DisassembleAll renders a sequence of instruction words, one per line,
// with word-index prefixes. Used by the ccdis tool and by test failure
// output.
func DisassembleAll(words []uint32) string {
	var sb strings.Builder
	for idx, w := range words {
		fmt.Fprintf(&sb, "%6d: %08x  %s\n", idx, w, Disassemble(w))
	}
	return sb.String()
}

// Assemble parses one instruction in the exact syntax Disassemble emits —
// standard PowerPC mnemonics including the simplified forms — and returns
// the encoded word. Assemble(Disassemble(w)) == w for every word that
// decodes under the subset, and ".long 0x…" round-trips arbitrary words.
// An operand that does not fit its field is an error, never masked.
func Assemble(src string) (uint32, error) {
	src = strings.TrimSpace(src)
	if src == "" {
		return 0, fmt.Errorf("ppc: empty instruction")
	}
	mnem, rest := src, ""
	if i := strings.IndexAny(src, " \t"); i >= 0 {
		mnem, rest = src[:i], strings.TrimSpace(src[i+1:])
	}
	var ops []string
	if rest != "" {
		ops = strings.Split(rest, ",")
		for i := range ops {
			ops[i] = strings.TrimSpace(ops[i])
		}
	}
	w, err := assemble(mnem, ops)
	if err != nil {
		return 0, fmt.Errorf("ppc: %q: %w", src, err)
	}
	return w, nil
}

func assemble(mnem string, ops []string) (w uint32, err error) {
	if mnem == ".long" {
		if len(ops) != 1 {
			return 0, fmt.Errorf("expected 1 operand, got %d", len(ops))
		}
		v, err := strconv.ParseUint(ops[0], 0, 32)
		if err != nil {
			return 0, fmt.Errorf("bad word %q", ops[0])
		}
		return uint32(v), nil
	}
	s, rc := lookup(mnem)
	if s == nil {
		return 0, fmt.Errorf("unknown mnemonic %q", mnem)
	}
	if len(ops) != len(s.ops) {
		return 0, fmt.Errorf("expected %d operands, got %d", len(s.ops), len(ops))
	}
	in := s.fix
	in.Rc = rc
	for k, o := range s.ops {
		if err := o.parse(ops[k], &in); err != nil {
			return 0, err
		}
	}
	// Encode's panics guard builders against bad fields; here the fields
	// came from input (an unaligned or out-of-reach branch), so they are
	// ordinary parse errors.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	return Encode(in), nil
}

// AssembleAll parses one instruction per line, skipping blank lines and
// '#' comments.
func AssembleAll(src string) ([]uint32, error) {
	var out []uint32
	for ln, line := range strings.Split(src, "\n") {
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		w, err := Assemble(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		out = append(out, w)
	}
	return out, nil
}
