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
	for r, e := range img.Entries {
		insts := make([]ppc.Inst, len(e.Words))
		for k, w := range e.Words {
			insts[k] = ppc.Decode(w)
		}
		pd.Entries[r] = machine.PredecodedEntry{Insts: insts, Words: e.Words}
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
		next := img.Base + uint32(u+it.Units)
		memBytes := (it.Units*unitBits + 7) / 8
		if !it.IsCodeword {
			inst := ppc.Decode(it.Word)
			if inst.Op == ppc.OpInvalid {
				s.Fault = true
				continue
			}
			*s = machine.PredecodedSlot{
				Inst: inst, Next: next,
				Rank: -1, MemBytes: uint8(memBytes), EntryLen: 1,
			}
			continue
		}
		words := entryWords(img, it.Rank)
		if words == nil || len(words) > 255 ||
			pd.Entries[it.Rank].Insts[0].Op == ppc.OpInvalid {
			s.Fault = true
			continue
		}
		*s = machine.PredecodedSlot{
			Inst: pd.Entries[it.Rank].Insts[0], Next: next,
			Rank: int32(it.Rank), MemBytes: uint8(memBytes),
			EntryLen: uint8(len(words)),
		}
	}
	return pd
}

// entryWords resolves a codeword rank to its entry, nil when the rank is
// out of range or the entry is empty (both are slow-path faults).
func entryWords(img *Image, rank int) []uint32 {
	if rank < 0 || rank >= len(img.Entries) || len(img.Entries[rank].Words) == 0 {
		return nil
	}
	return img.Entries[rank].Words
}
