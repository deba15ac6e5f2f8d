package core

import (
	"fmt"
	"math"

	"repro/internal/codeword"
	"repro/internal/dictionary"
	"repro/internal/ppc"
	"repro/internal/program"
	"repro/internal/sizeaudit"
)

// stub shape: a far conditional branch becomes
//
//	bc   !cond, .+stub     ; skip the stub when the branch falls through
//	lis  r12, hi(target)   ; materialize the absolute unit address
//	ori  r12, r12, lo(target)
//	mtctr r12
//	bctr                   ; bctrl when the original branch linked
//
// Unconditional far branches drop the leading bc. This is the paper's
// "branches requiring larger ranges are modified to load their targets
// through jump tables" fallback, realized with an inline materialization;
// it relies on r12 being a code-generator temporary that is never live
// across basic-block boundaries (true for the synthetic compiler, and the
// kind of compiler cooperation the paper assumes).
const (
	stubRegister  = 12
	condStubLen   = 5 // instructions
	uncondStubLen = 4
)

// stubLen returns the stub length in instructions for a branch word.
func stubLen(w uint32) int {
	if ppc.IsConditional(w) {
		return condStubLen
	}
	return uncondStubLen
}

// canStub reports whether the branch can be rewritten: CTR-decrementing
// branches cannot (the stub clobbers CTR).
func canStub(w uint32) bool {
	i := ppc.Decode(w)
	if i.Op == ppc.OpBc && i.BO&4 == 0 {
		return false
	}
	return true
}

// layoutResult fixes every item's stream position.
type layoutResult struct {
	itemUnit []int  // per item: unit offset
	unitOf   []int  // per original word: unit offset of the item starting there, -1 if none
	expanded []bool // per item: far branch rewritten through a stub
	units    int
}

// unitAt returns the unit offset of the item starting at an original word
// index, reporting false when no item starts there.
func (l *layoutResult) unitAt(word int) (int, bool) {
	if word < 0 || word >= len(l.unitOf) || l.unitOf[word] < 0 {
		return 0, false
	}
	return l.unitOf[word], true
}

// layout assigns unit offsets, iterating until every unexpanded branch
// displacement fits its field. Expansions only grow the program and are
// never revoked, so the iteration terminates.
func layout(p *program.Program, an *program.Analysis, items []dictionary.Item,
	rankOf []int, scheme codeword.Scheme) (*layoutResult, error) {
	lay := &layoutResult{
		itemUnit: make([]int, len(items)),
		unitOf:   make([]int, len(p.Text)),
		expanded: make([]bool, len(items)),
	}
	for i := range lay.unitOf {
		lay.unitOf[i] = -1
	}
	raw := scheme.RawInsnUnits()
	for pass := 0; ; pass++ {
		if pass > len(items)+2 {
			return nil, fmt.Errorf("core: branch layout did not converge")
		}
		u := 0
		for ii, it := range items {
			lay.itemUnit[ii] = u
			lay.unitOf[it.OrigIdx] = u
			switch {
			case it.IsCodeword:
				u += scheme.CodewordUnits(rankOf[it.Entry])
			case lay.expanded[ii]:
				u += stubLen(it.Word) * raw
			default:
				u += raw
			}
		}
		if u > math.MaxInt32 {
			return nil, fmt.Errorf("core: %d stream units overflow the 32-bit marks", u)
		}
		lay.units = u

		changed := false
		for ii, it := range items {
			if it.IsCodeword || lay.expanded[ii] || !ppc.IsRelativeBranch(it.Word) {
				continue
			}
			target := int(an.Target[it.OrigIdx])
			if target < 0 {
				return nil, fmt.Errorf("core: branch at word %d has no analyzed target", it.OrigIdx)
			}
			tu, ok := lay.unitAt(target)
			if !ok {
				return nil, fmt.Errorf("core: branch target word %d is not an item start", target)
			}
			field := int32(tu - lay.itemUnit[ii])
			if ppc.FitsField(it.Word, field) {
				continue
			}
			if !canStub(it.Word) {
				return nil, fmt.Errorf("core: CTR-decrementing branch at word %d needs expansion", it.OrigIdx)
			}
			lay.expanded[ii] = true
			changed = true
		}
		if !changed {
			return lay, nil
		}
	}
}

// emit writes the stream, patching branch fields and expanding stubs, and
// fills marks, stats and the byte-provenance audit.
func emit(img *Image, an *program.Analysis, items []dictionary.Item, rankOf []int, lay *layoutResult, opt Options) error {
	img.Marks = make([]Mark, 0, len(items)) // one mark per item
	scheme := img.Scheme
	w := codeword.NewWriter(scheme)
	w.Grow(lay.units)
	rawBitsPer := scheme.RawInsnUnits() * scheme.UnitBits()
	var stubBits int64
	for ii, it := range items {
		if w.Units() != lay.itemUnit[ii] {
			return fmt.Errorf("core: layout drift at item %d: %d != %d", ii, w.Units(), lay.itemUnit[ii])
		}
		img.Stats.Items++
		switch {
		case it.IsCodeword:
			rank := rankOf[it.Entry]
			if err := w.Codeword(rank); err != nil {
				return err
			}
			img.Marks = append(img.Marks, Mark{Unit: int32(lay.itemUnit[ii]), Orig: int32(it.OrigIdx), Kind: MarkCodeword})
			img.Stats.CodewordItems++
			img.Stats.CodewordBits += scheme.CodewordBits(rank)
			img.Stats.EscapeBits += scheme.EscapeBits()
			opt.Audit.AtWord(sizeaudit.Codeword, it.OrigIdx, int64(scheme.CodewordBits(rank)))

		case ppc.IsRelativeBranch(it.Word):
			tu := lay.unitOf[an.Target[it.OrigIdx]]
			if lay.expanded[ii] {
				if err := emitStub(w, it.Word, img.Base+uint32(tu), scheme); err != nil {
					return err
				}
				img.Marks = append(img.Marks, Mark{Unit: int32(lay.itemUnit[ii]), Orig: int32(it.OrigIdx), Kind: MarkStub})
				img.Stats.StubBranches++
				img.Stats.RawItems += stubLen(it.Word)
				img.Stats.RawBits += stubLen(it.Word) * rawBitsPer
				opt.Audit.AtWord(sizeaudit.Stub, it.OrigIdx, int64(stubLen(it.Word)*rawBitsPer))
				stubBits += int64(stubLen(it.Word) * rawBitsPer)
				break
			}
			field := int32(tu - lay.itemUnit[ii])
			nw, err := ppc.SetField(it.Word, field)
			if err != nil {
				return fmt.Errorf("core: patching branch at word %d: %v", it.OrigIdx, err)
			}
			if err := w.Raw(nw); err != nil {
				return err
			}
			img.Marks = append(img.Marks, Mark{Unit: int32(lay.itemUnit[ii]), Orig: int32(it.OrigIdx), Kind: MarkBranch})
			img.Stats.RawItems++
			img.Stats.RawBits += rawBitsPer
			opt.Audit.AtWord(sizeaudit.Raw, it.OrigIdx, int64(rawBitsPer))

		default:
			if err := w.Raw(it.Word); err != nil {
				return err
			}
			img.Marks = append(img.Marks, Mark{Unit: int32(lay.itemUnit[ii]), Orig: int32(it.OrigIdx), Kind: MarkRaw})
			img.Stats.RawItems++
			img.Stats.RawBits += rawBitsPer
			opt.Audit.AtWord(sizeaudit.Raw, it.OrigIdx, int64(rawBitsPer))
		}
	}
	if w.Units() != lay.units {
		return fmt.Errorf("core: final layout drift: %d != %d", w.Units(), lay.units)
	}
	img.Stream = w.Bytes()
	img.Units = w.Units()
	img.StreamBytes = w.SizeBytes()
	// Final alignment padding (the nibble scheme's half-byte round-up; zero
	// for byte-granular schemes) completes the stream accounting.
	opt.Audit.Global(sizeaudit.Padding, sizeaudit.PadRow,
		int64(img.StreamBytes*8-img.Units*scheme.UnitBits()))
	// The Liao comparator's codewords model dictionary calls, so its
	// far-branch machinery is call-stub overhead worth a dedicated counter
	// (the paper's §2.4 criticism quantified); mirror the dictionary
	// builder's convention of materializing the counter even at zero.
	if scheme == codeword.Liao {
		opt.Stats.Add("calldict.stub_bytes", stubBits/8)
	}
	return nil
}

// emitStub writes the register-indirect far-branch sequence.
func emitStub(w *codeword.Writer, branch uint32, targetAbs uint32, scheme codeword.Scheme) error {
	i := ppc.Decode(branch)
	if ppc.IsConditional(branch) {
		// Invert the condition sense (BO bit 8) and skip the stub body.
		skip := int32(condStubLen * scheme.RawInsnUnits())
		inv := ppc.Bc(i.BO^8, i.BI, 0)
		nw, err := ppc.SetField(inv, skip)
		if err != nil {
			return err
		}
		if err := w.Raw(nw); err != nil {
			return err
		}
	}
	hi := int32(int16(uint16(targetAbs >> 16)))
	lo := int32(targetAbs & 0xFFFF)
	for _, word := range []uint32{
		ppc.Lis(stubRegister, hi),
		ppc.Ori(stubRegister, stubRegister, lo),
		ppc.Mtctr(stubRegister),
	} {
		if err := w.Raw(word); err != nil {
			return err
		}
	}
	last := ppc.Bctr()
	if i.LK {
		last = ppc.Bctrl()
	}
	return w.Raw(last)
}
