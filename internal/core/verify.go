package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/codeword"
	"repro/internal/ppc"
	"repro/internal/program"
)

// Decompress expands the whole stream back into a flat instruction
// sequence: codewords expand through the dictionary, everything else
// appears verbatim (with branch fields holding unit displacements and far
// branches as stubs). Used by the disassembler and by sanity checks.
func (img *Image) Decompress() ([]uint32, error) {
	rdr := codeword.NewReader(img.Scheme, img.Stream, img.Units)
	var out []uint32
	for u := 0; u < img.Units; {
		it, err := rdr.At(u)
		if err != nil {
			return nil, err
		}
		if it.IsCodeword {
			if it.Rank >= len(img.Entries) {
				return nil, fmt.Errorf("core: codeword rank %d exceeds dictionary size %d", it.Rank, len(img.Entries))
			}
			out = append(out, img.Entries[it.Rank].Words...)
		} else {
			out = append(out, it.Word)
		}
		u += it.Units
	}
	return out, nil
}

// Verify structurally checks an image against the original program:
//
//  1. the marks tile the stream exactly, in original program order;
//  2. every codeword expands to the original instruction subsequence;
//  3. every raw instruction matches the original word;
//  4. every patched branch preserves all non-offset bits and its unit
//     displacement resolves to the item holding the original target;
//  5. every stub matches the expansion template and materializes the
//     absolute unit address of the original target;
//  6. every jump-table slot points at the item of its original target;
//  7. the entry point maps to the original entry.
//
// Together with behavioral equivalence (running both images on the
// simulator), this is the evidence that compression is semantics-
// preserving.
func Verify(p *program.Program, img *Image) error {
	an, err := program.Analyze(p)
	if err != nil {
		return err
	}
	rdr := codeword.NewReader(img.Scheme, img.Stream, img.Units)

	// Pass 1: tiling and per-item equivalence.
	nextOrig := 0
	nextUnit := 0
	for mi, m := range img.Marks {
		unit, word := int(m.Unit), int(m.Orig)
		if unit != nextUnit {
			return fmt.Errorf("core: mark %d at unit %d, expected %d (stream not tiled)", mi, unit, nextUnit)
		}
		if word != nextOrig {
			return fmt.Errorf("core: mark %d covers word %d, expected %d (program order broken)", mi, word, nextOrig)
		}
		it, err := rdr.At(unit)
		if err != nil {
			return err
		}
		switch m.Kind {
		case MarkCodeword:
			if !it.IsCodeword {
				return fmt.Errorf("core: mark %d: expected codeword", mi)
			}
			if it.Rank >= len(img.Entries) {
				return fmt.Errorf("core: mark %d: codeword rank %d exceeds dictionary size %d",
					mi, it.Rank, len(img.Entries))
			}
			words := img.Entries[it.Rank].Words
			for j, w := range words {
				if p.Text[word+j] != w {
					return fmt.Errorf("core: entry %d word %d mismatches original at %d", it.Rank, j, word+j)
				}
			}
			nextOrig += len(words)
			nextUnit += it.Units

		case MarkRaw:
			if it.IsCodeword || it.Word != p.Text[word] {
				return fmt.Errorf("core: raw word at unit %d differs from original %d", unit, word)
			}
			nextOrig++
			nextUnit += it.Units

		case MarkBranch:
			if it.IsCodeword {
				return fmt.Errorf("core: mark %d: expected branch", mi)
			}
			orig := p.Text[word]
			if it.Word&^branchFieldMask(orig) != orig&^branchFieldMask(orig) {
				return fmt.Errorf("core: branch at %d corrupted outside offset field", word)
			}
			field, _, ok := ppc.FieldValue(it.Word)
			if !ok {
				return fmt.Errorf("core: branch mark %d does not decode as a relative branch", mi)
			}
			tm, ok := img.markByUnit(img.Base + uint32(unit) + uint32(field))
			if !ok {
				return fmt.Errorf("core: branch at %d targets unit %d: not an item", word, unit+int(field))
			}
			if int(tm.Orig) != an.Target[word] {
				return fmt.Errorf("core: branch at %d retargeted: word %d instead of %d", word, tm.Orig, an.Target[word])
			}
			nextOrig++
			nextUnit += it.Units

		case MarkStub:
			units, err := verifyStub(p, img, an, rdr, m)
			if err != nil {
				return err
			}
			nextOrig++
			nextUnit += units
		}
	}
	if nextOrig != len(p.Text) {
		return fmt.Errorf("core: marks cover %d of %d original words", nextOrig, len(p.Text))
	}
	if nextUnit != img.Units {
		return fmt.Errorf("core: marks cover %d of %d stream units", nextUnit, img.Units)
	}

	// Pass 2: jump tables.
	jts, err := p.JumpTableTargets()
	if err != nil {
		return err
	}
	for i, slot := range img.JumpTableSlots {
		v := binary.BigEndian.Uint32(img.Data[slot:])
		tm, ok := img.markByUnit(v)
		if !ok {
			return fmt.Errorf("core: jump table slot %d points at %#x: not an item", slot, v)
		}
		if int(tm.Orig) != jts[i] {
			return fmt.Errorf("core: jump table slot %d retargeted: word %d instead of %d", slot, tm.Orig, jts[i])
		}
	}

	// Pass 3: entry point.
	em, ok := img.markByUnit(img.EntryUnit)
	if !ok || int(em.Orig) != p.Entry {
		return fmt.Errorf("core: entry unit %#x does not map to original entry %d", img.EntryUnit, p.Entry)
	}
	return nil
}

// branchFieldMask returns the displacement-field mask of a branch word.
func branchFieldMask(w uint32) uint32 {
	switch ppc.PrimaryOpcode(w) {
	case 18: // I-form
		return 0x03FFFFFC
	case 16: // B-form
		return 0x0000FFFC
	}
	return 0
}

// verifyStub checks the far-branch expansion and returns its stream units.
func verifyStub(p *program.Program, img *Image, an *program.Analysis, rdr *codeword.Reader, m Mark) (int, error) {
	unit, word := int(m.Unit), int(m.Orig)
	orig := p.Text[word]
	want := an.Target[word]
	n := stubLen(orig)
	words := make([]uint32, 0, n)
	u := unit
	for i := 0; i < n; i++ {
		it, err := rdr.At(u)
		if err != nil {
			return 0, err
		}
		if it.IsCodeword {
			return 0, fmt.Errorf("core: stub at unit %d contains a codeword", unit)
		}
		words = append(words, it.Word)
		u += it.Units
	}
	idx := 0
	if ppc.IsConditional(orig) {
		inv := ppc.Decode(words[0])
		o := ppc.Decode(orig)
		if inv.Op != ppc.OpBc || inv.BO != o.BO^8 || inv.BI != o.BI {
			return 0, fmt.Errorf("core: stub at %d has wrong guard", word)
		}
		idx = 1
	}
	lis := ppc.Decode(words[idx])
	ori := ppc.Decode(words[idx+1])
	mtctr := ppc.Decode(words[idx+2])
	last := ppc.Decode(words[idx+3])
	if lis.Op != ppc.OpAddis || ori.Op != ppc.OpOri || mtctr.Op != ppc.OpMtspr || mtctr.SPR != ppc.SprCTR {
		return 0, fmt.Errorf("core: stub at %d malformed", word)
	}
	addr := uint32(lis.Imm)<<16 | uint32(ori.Imm)
	tm, ok := img.markByUnit(addr)
	if !ok || int(tm.Orig) != want {
		return 0, fmt.Errorf("core: stub at %d targets %#x (word %d), want word %d", word, addr, tm.Orig, want)
	}
	if last.Op != ppc.OpBcctr || last.LK != ppc.Decode(orig).LK {
		return 0, fmt.Errorf("core: stub at %d has wrong transfer", word)
	}
	return u - unit, nil
}
