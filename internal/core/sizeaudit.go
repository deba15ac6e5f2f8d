package core

import (
	"fmt"

	"repro/internal/codeword"
	"repro/internal/sizeaudit"
)

// SizeAudit reconstructs the byte-provenance audit of a compressed image
// from its sideband marks — no recompression needed, so it works on a .ppz
// read back from disk. Each mark's stream extent (to the next mark, or the
// stream end) is exactly the item's encoded size in units, classified by
// the mark's kind and attributed to the original function containing the
// item's first instruction; stream padding, dictionary storage and the
// header complete the accounting. The result is bit-identical to the audit
// an Options.Audit emitter collects during Compress (asserted in tests),
// and always satisfies the conservation invariant Check verifies.
func (img *Image) SizeAudit() (*sizeaudit.Audit, error) {
	if len(img.Marks) == 0 {
		return nil, fmt.Errorf("core: image %s carries no marks; cannot audit", img.Name)
	}
	if len(img.OrigSymbols) == 0 {
		return nil, fmt.Errorf("core: image %s carries no original symbols; cannot audit", img.Name)
	}
	funcs := make([]sizeaudit.Func, len(img.OrigSymbols))
	for i, s := range img.OrigSymbols {
		funcs[i] = sizeaudit.Func{Name: s.Name, Start: 4 * uint32(s.Word)}
	}
	em := sizeaudit.NewEmitter(funcs, uint32(img.OriginalBytes))
	ub := img.Scheme.UnitBits()
	for i, m := range img.Marks {
		unit, end := int(m.Unit), img.Units
		if i+1 < len(img.Marks) {
			end = int(img.Marks[i+1].Unit)
		}
		if end < unit {
			return nil, fmt.Errorf("core: image %s: marks not monotone at item %d", img.Name, i)
		}
		var cl sizeaudit.Class
		switch m.Kind {
		case MarkCodeword:
			cl = sizeaudit.Codeword
		case MarkStub:
			cl = sizeaudit.Stub
		default: // MarkRaw, MarkBranch
			cl = sizeaudit.Raw
		}
		em.AtWord(cl, int(m.Orig), int64(end-unit)*int64(ub))
	}
	em.Global(sizeaudit.Padding, sizeaudit.PadRow, int64(img.StreamBytes*8-img.Units*ub))
	em.Global(sizeaudit.Dict, sizeaudit.DictRow,
		int64(img.DictionaryBytes-codeword.DictHeaderBytes)*8)
	em.Global(sizeaudit.Header, sizeaudit.HeaderRow, int64(codeword.DictHeaderBytes)*8)
	a := em.Finish(img.Name, img.Scheme.String(), img.CompressedBytes(), img.OriginalBytes)
	if err := a.Check(); err != nil {
		return nil, err
	}
	return a, nil
}
