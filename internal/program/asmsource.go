package program

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ppc"
)

// AssembleSource builds a linked program from textual assembly. The
// format is one instruction per line in ppc.Assemble syntax, plus:
//
//	.program NAME        module name (optional, first line)
//	.entry NAME          entry function (optional, default first)
//	.func NAME           start a function
//	label:               bind a local label
//	b/bl/blt/… label     branches may name a local label or, for b/bl,
//	                     another function; numeric .±0x… displacements
//	                     still work
//	.data NAME           start a named data object; until the next
//	                     directive, fill it with:
//	.word v, v, …        32-bit big-endian values
//	.byte v, v, …        bytes
//	.asciz "text"        NUL-terminated string
//	la rD, NAME          pseudo-instruction: materialize a data object's
//	                     address (expands to lis+ori)
//	# comment            comments and blank lines are skipped
//
// Example:
//
//	.func main
//	    li   r3,5
//	    bl   double
//	    li   r0,0
//	    sc
//	.func double
//	    add  r3,r3,r3
//	    blr
func AssembleSource(src string) (*Program, error) {
	var b *Builder
	var f *FuncBuilder
	name := "asm"
	entry := ""
	funcs := map[string]bool{}
	dataAddr := map[string]uint32{}
	inData := false
	curData := ""

	// First pass: collect function names so branch operands can
	// distinguish calls from local labels.
	for _, line := range strings.Split(src, "\n") {
		line = stripComment(line)
		if rest, ok := cutDirective(line, ".func"); ok {
			funcs[rest] = true
		}
	}

	for ln, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		fail := func(err error) error { return fmt.Errorf("line %d: %w", ln+1, err) }
		switch {
		case strings.HasPrefix(line, ".program"):
			rest, _ := cutDirective(line, ".program")
			if rest == "" {
				return nil, fail(fmt.Errorf(".program needs a name"))
			}
			name = rest
		case strings.HasPrefix(line, ".entry"):
			rest, _ := cutDirective(line, ".entry")
			if rest == "" {
				return nil, fail(fmt.Errorf(".entry needs a name"))
			}
			entry = rest
		case strings.HasPrefix(line, ".func"):
			rest, _ := cutDirective(line, ".func")
			if rest == "" {
				return nil, fail(fmt.Errorf(".func needs a name"))
			}
			if b == nil {
				b = NewBuilder(name)
			}
			f = b.Func(rest)
			inData = false
		case strings.HasPrefix(line, ".data"):
			rest, _ := cutDirective(line, ".data")
			if rest == "" {
				return nil, fail(fmt.Errorf(".data needs a name"))
			}
			if b == nil {
				b = NewBuilder(name)
			}
			if _, dup := dataAddr[rest]; dup {
				return nil, fail(fmt.Errorf("duplicate data object %q", rest))
			}
			off := b.ReserveData(0, 4)
			dataAddr[rest] = uint32(DefaultDataBase + off)
			inData = true
			curData = rest
			f = nil
		case strings.HasPrefix(line, ".word"), strings.HasPrefix(line, ".byte"), strings.HasPrefix(line, ".asciz"):
			if !inData {
				return nil, fail(fmt.Errorf("%s outside a .data object", strings.Fields(line)[0]))
			}
			if err := appendDataLine(b, line); err != nil {
				return nil, fail(fmt.Errorf("in %s: %w", curData, err))
			}
		case strings.HasSuffix(line, ":"):
			if f == nil {
				return nil, fail(fmt.Errorf("label outside a function"))
			}
			f.Label(strings.TrimSuffix(line, ":"))
		default:
			if f == nil {
				return nil, fail(fmt.Errorf("instruction outside a function"))
			}
			if err := assembleLine(f, line, funcs, dataAddr); err != nil {
				return nil, fail(err)
			}
		}
	}
	if b == nil {
		return nil, fmt.Errorf("program: no .func in source")
	}
	if entry != "" {
		b.SetEntry(entry)
	}
	return b.Link()
}

func stripComment(line string) string {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// cutDirective matches ".dir rest" and returns the trimmed rest.
func cutDirective(line, dir string) (string, bool) {
	if line == dir {
		return "", true
	}
	if strings.HasPrefix(line, dir+" ") || strings.HasPrefix(line, dir+"\t") {
		return strings.TrimSpace(line[len(dir):]), true
	}
	return "", false
}

// appendDataLine parses one .word/.byte/.asciz content line into the
// current (last-reserved) data object.
func appendDataLine(b *Builder, line string) error {
	if rest, ok := cutDirective(line, ".asciz"); ok {
		s, err := strconv.Unquote(rest)
		if err != nil {
			return fmt.Errorf("bad string %s", rest)
		}
		b.AppendData(append([]byte(s), 0))
		return nil
	}
	word := strings.HasPrefix(line, ".word")
	rest := strings.TrimSpace(line[len(".word"):]) // ".byte" has equal length
	for _, fld := range strings.Split(rest, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(fld), 0, 64)
		if err != nil {
			return fmt.Errorf("bad value %q", strings.TrimSpace(fld))
		}
		if word {
			u := uint32(v)
			b.AppendData([]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
		} else {
			b.AppendData([]byte{byte(v)})
		}
	}
	return nil
}

// assembleLine emits one instruction, turning symbolic branch targets into
// builder fixups and expanding the la pseudo-instruction.
func assembleLine(f *FuncBuilder, line string, funcs map[string]bool, dataAddr map[string]uint32) error {
	mnem := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnem, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	if mnem == "la" {
		parts := strings.Split(rest, ",")
		if len(parts) != 2 {
			return fmt.Errorf("la needs rD,NAME")
		}
		regOp := strings.TrimSpace(parts[0])
		nameOp := strings.TrimSpace(parts[1])
		addr, ok := dataAddr[nameOp]
		if !ok {
			return fmt.Errorf("la references undefined data object %q", nameOp)
		}
		hi, err := ppc.Assemble(fmt.Sprintf("lis %s,%d", regOp, int32(int16(uint16(addr>>16)))))
		if err != nil {
			return err
		}
		lo, err := ppc.Assemble(fmt.Sprintf("ori %s,%s,%d", regOp, regOp, addr&0xFFFF))
		if err != nil {
			return err
		}
		f.Emit(hi)
		f.Emit(lo)
		return nil
	}
	// Does the final operand name a symbol rather than a displacement or
	// number? Only mnemonics ending in a displacement may use symbols.
	ops := []string{}
	if rest != "" {
		ops = strings.Split(rest, ",")
		for i := range ops {
			ops[i] = strings.TrimSpace(ops[i])
		}
	}
	if ppc.EndsInDisplacement(mnem) && len(ops) > 0 && isSymbol(ops[len(ops)-1]) {
		target := ops[len(ops)-1]
		ops[len(ops)-1] = ".+0x0" // placeholder displacement
		w, err := ppc.Assemble(mnem + " " + strings.Join(ops, ","))
		if err != nil {
			return err
		}
		if funcs[target] {
			switch mnem {
			case "bl":
				f.Call(target)
				return nil
			case "b":
				f.Goto(target)
				return nil
			default:
				return fmt.Errorf("conditional branch to another function %q", target)
			}
		}
		f.Branch(w, target)
		return nil
	}
	w, err := ppc.Assemble(line)
	if err != nil {
		return err
	}
	f.Emit(w)
	return nil
}

// isSymbol reports whether the operand is a name (not a displacement,
// register or number).
func isSymbol(s string) bool {
	if s == "" || strings.HasPrefix(s, ".") || strings.HasPrefix(s, "-") {
		return false
	}
	c := s[0]
	if c >= '0' && c <= '9' {
		return false
	}
	// Registers and condition fields are operands, not symbols, but they
	// never appear as the *final* operand of a branch in this subset.
	return true
}
