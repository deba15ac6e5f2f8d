package machine

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// pageShift sets the dirty-tracking granularity: Reset restores memory in
// 1 KiB pages.
const pageShift = 10

// Memory is a sparse big-endian byte-addressable memory built from disjoint
// regions (text, data, stack). Accesses outside any region fault, which
// turns wild pointers in generated code into test failures instead of
// silent corruption.
type Memory struct {
	regions []region

	// storeGen counts stores into watched regions (see WatchStores). The
	// predecoded fetch path compares it per step to notice text modified
	// behind a decode table's back.
	storeGen uint64

	snapped bool   // Snapshot has run; Reset is permitted
	snapGen uint64 // storeGen at Snapshot time
}

type region struct {
	name string
	base uint32
	data []byte

	// init holds the pristine copy Reset restores; nil means the region
	// was all-zero at Snapshot time and is zero-filled instead (a 1MB
	// stack never earns a copy).
	init  []byte
	watch bool // stores here advance storeGen

	// dirty has one bit per page stored to since the last Snapshot or
	// Reset: the only pages Reset has to restore.
	dirty []uint64
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// Map adds a region. Regions must not overlap: a region that overlaps
// another or wraps the address space is a FaultBadAddress at its base.
func (m *Memory) Map(name string, base uint32, data []byte) error {
	end := uint64(base) + uint64(len(data))
	if end > 1<<32 {
		return Faultf(FaultBadAddress, 0, base, "machine: region %s wraps the address space", name)
	}
	for _, r := range m.regions {
		rEnd := uint64(r.base) + uint64(len(r.data))
		if uint64(base) < rEnd && end > uint64(r.base) {
			return Faultf(FaultBadAddress, 0, base, "machine: region %s overlaps %s", name, r.name)
		}
	}
	pages := (len(data) + 1<<pageShift - 1) >> pageShift
	m.regions = append(m.regions, region{name: name, base: base, data: data,
		dirty: make([]uint64, (pages+63)/64)})
	return nil
}

func (m *Memory) find(addr uint32, n int) ([]byte, error) {
	for i := range m.regions {
		r := &m.regions[i]
		if addr >= r.base && uint64(addr)+uint64(n) <= uint64(r.base)+uint64(len(r.data)) {
			off := addr - r.base
			return r.data[off : off+uint32(n)], nil
		}
	}
	return nil, Faultf(FaultBadAddress, 0, addr, "machine: fault at %#x (%d bytes)", addr, n)
}

// findW is find for stores: before the caller writes through the returned
// slice, it marks the written pages dirty for Reset and, in a watched
// region, advances the store generation. A store is at most 4 bytes, so
// the pages of its first and last byte are all it touches.
func (m *Memory) findW(addr uint32, n int) ([]byte, error) {
	for i := range m.regions {
		r := &m.regions[i]
		if addr >= r.base && uint64(addr)+uint64(n) <= uint64(r.base)+uint64(len(r.data)) {
			if r.watch {
				m.storeGen++
			}
			off := addr - r.base
			first, last := off>>pageShift, (off+uint32(n)-1)>>pageShift
			r.dirty[first/64] |= 1 << (first % 64)
			r.dirty[last/64] |= 1 << (last % 64)
			return r.data[off : off+uint32(n)], nil
		}
	}
	return nil, Faultf(FaultBadAddress, 0, addr, "machine: fault at %#x (%d bytes)", addr, n)
}

// WatchStores marks every region overlapping [lo, hi) so that stores into
// it advance the store-generation counter, and returns the current
// generation. Predecode-table owners call it to learn whether text has
// changed since a table was built.
func (m *Memory) WatchStores(lo, hi uint32) uint64 {
	for i := range m.regions {
		r := &m.regions[i]
		rEnd := uint64(r.base) + uint64(len(r.data))
		if uint64(lo) < rEnd && uint64(hi) > uint64(r.base) {
			r.watch = true
		}
	}
	return m.storeGen
}

// Snapshot records each region's current contents as the state Reset
// restores and starts a clean dirty-page set. Regions that are all-zero at
// snapshot time (stacks, BSS) are recorded implicitly and zero-filled on
// Reset instead of copied.
func (m *Memory) Snapshot() {
	for i := range m.regions {
		r := &m.regions[i]
		if allZero(r.data) {
			r.init = nil
		} else {
			r.init = append([]byte(nil), r.data...)
		}
		clear(r.dirty)
	}
	m.snapped = true
	m.snapGen = m.storeGen
}

// Reset restores every region to its Snapshot contents, reusing the
// backing arrays. Only the pages stored to since the last Snapshot or
// Reset are rewritten, so its cost follows the pages a run dirtied, not
// the size of the address space. If any watched store happened since the
// snapshot, the store generation advances once more: the restored bytes
// differ from what a predecode table built after that store saw.
func (m *Memory) Reset() error {
	if !m.snapped {
		return fmt.Errorf("machine: memory Reset without a prior Snapshot")
	}
	for i := range m.regions {
		r := &m.regions[i]
		for w, word := range r.dirty {
			for ; word != 0; word &= word - 1 {
				lo := (w*64 + bits.TrailingZeros64(word)) << pageShift
				hi := min(lo+1<<pageShift, len(r.data))
				if r.init == nil {
					clear(r.data[lo:hi])
				} else {
					copy(r.data[lo:hi], r.init[lo:hi])
				}
			}
			r.dirty[w] = 0
		}
	}
	if m.storeGen != m.snapGen {
		m.storeGen++
		m.snapGen = m.storeGen
	}
	return nil
}

func allZero(b []byte) bool {
	for len(b) >= 8 {
		if binary.BigEndian.Uint64(b) != 0 {
			return false
		}
		b = b[8:]
	}
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// Load8 reads one byte.
func (m *Memory) Load8(addr uint32) (uint8, error) {
	b, err := m.find(addr, 1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Load16 reads a big-endian halfword.
func (m *Memory) Load16(addr uint32) (uint16, error) {
	b, err := m.find(addr, 2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

// Load32 reads a big-endian word.
func (m *Memory) Load32(addr uint32) (uint32, error) {
	b, err := m.find(addr, 4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

// Store8 writes one byte.
func (m *Memory) Store8(addr uint32, v uint8) error {
	b, err := m.findW(addr, 1)
	if err != nil {
		return err
	}
	b[0] = v
	return nil
}

// Store16 writes a big-endian halfword.
func (m *Memory) Store16(addr uint32, v uint16) error {
	b, err := m.findW(addr, 2)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint16(b, v)
	return nil
}

// Store32 writes a big-endian word.
func (m *Memory) Store32(addr uint32, v uint32) error {
	b, err := m.findW(addr, 4)
	if err != nil {
		return err
	}
	binary.BigEndian.PutUint32(b, v)
	return nil
}

// CString reads a NUL-terminated string of at most max bytes.
func (m *Memory) CString(addr uint32, max int) (string, error) {
	out := make([]byte, 0, 32)
	for i := 0; i < max; i++ {
		c, err := m.Load8(addr + uint32(i))
		if err != nil {
			return "", err
		}
		if c == 0 {
			return string(out), nil
		}
		out = append(out, c)
	}
	return "", Faultf(FaultBadAddress, 0, addr, "machine: unterminated string at %#x", addr)
}
