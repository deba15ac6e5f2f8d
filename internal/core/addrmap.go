package core

import (
	"fmt"
	"sort"
)

// AddrMap is the compressed↔native address map of one image: a bidirectional
// mapping between absolute unit addresses in compressed space and absolute
// byte addresses in the original program's text, derived from the marks the
// branch-patching machinery records for every stream item. Resolution is
// item granularity — an address inside a codeword's expansion or a
// far-branch stub maps to the item's start — which is exactly what
// symbolized attribution needs: any unit address inside a function's items
// lands back inside that function's native address range.
type AddrMap struct {
	base      uint32 // unit-space base of the image
	textBase  uint32 // byte-space base of the original text
	units     []int  // ascending unit offsets, one per stream item
	origs     []int  // parallel: original word index of each item
	unitsEnd  int    // total units in the stream
	origWords int    // original text length in words
}

// AddrMap builds the map from the image's marks. It fails on images
// stripped of their sideband metadata (no marks), which cannot be mapped.
func (img *Image) AddrMap() (*AddrMap, error) {
	if len(img.Marks) == 0 {
		return nil, fmt.Errorf("core: image %s carries no marks; cannot build address map", img.Name)
	}
	m := &AddrMap{
		base:      img.Base,
		textBase:  img.TextBase,
		units:     make([]int, len(img.Marks)),
		origs:     make([]int, len(img.Marks)),
		unitsEnd:  img.Units,
		origWords: img.OriginalBytes / 4,
	}
	for i, mk := range img.Marks {
		m.units[i] = int(mk.Unit)
		m.origs[i] = int(mk.Orig)
	}
	return m, nil
}

// NativeAddr maps an absolute unit address in compressed space to the
// absolute byte address of the original instruction the containing stream
// item was emitted for. It reports false outside the compressed text.
func (m *AddrMap) NativeAddr(unitAddr uint32) (uint32, bool) {
	rel := int(unitAddr) - int(m.base)
	if rel < 0 || rel >= m.unitsEnd {
		return 0, false
	}
	// Floor item: the last mark with Unit <= rel.
	i := sort.SearchInts(m.units, rel+1) - 1
	if i < 0 {
		return 0, false
	}
	return m.textBase + 4*uint32(m.origs[i]), true
}

// UnitAddr maps an absolute byte address in original text space to the
// absolute unit address of the stream item covering it. Words absorbed
// into the middle of a codeword's sequence map to the codeword itself. It
// reports false outside the original text.
func (m *AddrMap) UnitAddr(nativeAddr uint32) (uint32, bool) {
	rel := int(nativeAddr) - int(m.textBase)
	if rel < 0 || rel/4 >= m.origWords {
		return 0, false
	}
	word := rel / 4
	// Items are emitted in original order, so origs is ascending; floor
	// item: the last mark with Orig <= word.
	i := sort.SearchInts(m.origs, word+1) - 1
	if i < 0 {
		return 0, false
	}
	return m.base + uint32(m.units[i]), true
}
