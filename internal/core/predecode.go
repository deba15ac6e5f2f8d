package core

import (
	"repro/internal/codeword"
	"repro/internal/machine"
	"repro/internal/ppc"
)

// Predecode returns the image's decoded execution table: one slot per
// stream unit (the compressed PC space addresses every unit, so branches
// may target any offset — each is decoded positionally exactly as
// codeword.Reader.At would), plus the expansion cache holding every
// dictionary entry decoded once. The table is built on first use and
// cached on the image; it reads only immutable image state, so concurrent
// builders race benignly toward identical tables.
func (img *Image) Predecode() *machine.Predecode {
	if pd := img.predecode.Load(); pd != nil {
		return pd
	}
	pd := buildPredecode(img)
	img.predecode.Store(pd)
	return pd
}

func buildPredecode(img *Image) *machine.Predecode {
	pd := &machine.Predecode{
		Base:     img.Base,
		Shift:    0, // unit-addressed: one slot per unit
		UnitBits: uint(img.Scheme.UnitBits()),
		Slots:    make([]machine.PredecodedSlot, img.Units),
		Entries:  make([]machine.PredecodedEntry, len(img.Entries)),
	}
	// An entry's instructions resolve once, with no branch target, and
	// proto[r] is the slot every codeword of rank r starts from. A slot
	// whose entry starts with a relative branch resolves it again at its
	// own address; an entry that no slot can expand (empty, longer than a
	// slot counts, an illegal first instruction, or a relative branch after
	// it — never in a compressor-built image) makes its slots Fault, so
	// Step handles them per fetch.
	memo := machine.GetMemo()
	defer memo.Release()
	proto := make([]machine.PredecodedSlot, len(img.Entries))
	for r, e := range img.Entries {
		insts := make([]machine.Resolved, len(e.Words))
		p := &proto[r]
		p.Fault = len(e.Words) == 0 || len(e.Words) > 255
		for k, w := range e.Words {
			i := ppc.Decode(w)
			insts[k] = memo.Resolve(w, i, 0, k == len(e.Words)-1)
			if k == 0 && i.Op == ppc.OpInvalid || k > 0 && ppc.IsRelativeBranch(w) {
				p.Fault = true
			}
		}
		pd.Entries[r] = machine.PredecodedEntry{Insts: insts, Words: e.Words}
		if !p.Fault {
			*p = machine.PredecodedSlot{Inst: insts[0], Word: e.Words[0], Rank: int32(r), EntryLen: uint8(len(e.Words))}
		}
	}
	rdr := codeword.NewReader(img.Scheme, img.Stream, img.Units)
	unitBits := img.Scheme.UnitBits()
	for u := 0; u < img.Units; u++ {
		s := &pd.Slots[u]
		it, err := rdr.At(u)
		if err != nil {
			// Torn or off-end decode at this offset: the slow path owns
			// the exact fault if execution ever lands here.
			s.Fault = true
			continue
		}
		cia := img.Base + uint32(u)
		next := cia + uint32(it.Units)
		memBytes := (it.Units*unitBits + 7) / 8
		if !it.IsCodeword {
			r, ok := memo.Lookup(it.Word, true)
			if !ok {
				inst := ppc.Decode(it.Word)
				if inst.Op == ppc.OpInvalid {
					s.Fault = true
					continue
				}
				r = memo.Resolve(it.Word, inst, unitTarget(cia, inst.Imm>>2), true)
			}
			*s = machine.PredecodedSlot{
				Inst: r, Word: it.Word, Next: next, Rank: -1, MemBytes: uint8(memBytes),
				EntryLen: 1, Succ: uint8(it.Units),
			}
			continue
		}
		if it.Rank >= len(proto) || proto[it.Rank].Fault {
			s.Fault = true
			continue
		}
		*s = proto[it.Rank]
		s.Next, s.MemBytes, s.Succ = next, uint8(memBytes), uint8(it.Units)
		if ppc.IsRelativeBranch(s.Word) {
			head := ppc.Decode(s.Word)
			s.Inst = machine.Resolve(head, unitTarget(cia, head.Imm>>2), s.EntryLen == 1)
		}
	}
	return pd
}
