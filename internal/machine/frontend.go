package machine

import "encoding/binary"

// FetchInfo describes one fetched instruction.
type FetchInfo struct {
	Word uint32 // the 32-bit instruction to execute

	CIA  uint32 // address of this instruction in the frontend's PC space
	Next uint32 // address of the sequential successor (return address for LK)

	// NextOK is false when the successor is not addressable — an LK branch
	// in the middle of a dictionary entry. The compressor guarantees this
	// never happens for well-formed images; the machine faults if it does.
	NextOK bool

	// MemAddr/MemBytes describe the program-memory access of this fetch
	// for cache simulation. Instructions expanded from the on-chip
	// dictionary after the first report zero bytes (the codeword itself was
	// the only memory access).
	MemAddr  uint32
	MemBytes int

	// EntryRank/EntryLen attribute the fetch to a dictionary entry when
	// it begins a codeword expansion: EntryLen is the entry's instruction
	// count (0 on every other fetch, including the expansion's
	// continuation fetches) and EntryRank its dictionary rank. They feed
	// the guest profiler's per-entry heat map.
	EntryRank int
	EntryLen  int
}

// Frontend is the instruction-fetch abstraction of Figure 3: the normal
// path reads raw words from program memory; the compressed path consumes
// codeword units and expands them through the dictionary. PC spaces differ
// (byte addresses vs. codeword-unit addresses), so branch-target arithmetic
// lives behind RelTarget.
type Frontend interface {
	// Reset positions the frontend at the entry address.
	Reset(entry uint32) error
	// Fetch returns the next instruction and advances.
	Fetch() (FetchInfo, error)
	// SetPC redirects fetch to a branch target in the frontend's PC space.
	SetPC(addr uint32) error
	// PC returns the current fetch address.
	PC() uint32
	// RelTarget computes the target of a relative branch whose displacement
	// field (unscaled) is field, relative to the fetch address cia. The
	// normal frontend scales by 4; compressed frontends scale by their
	// codeword unit ("treat the branch offsets as aligned to the size of
	// the smallest codeword", §3.2.2).
	RelTarget(cia uint32, field int32) uint32
}

// NormalFrontend fetches uncompressed 32-bit instructions from memory.
type NormalFrontend struct {
	mem *Memory
	pc  uint32
	lo  uint32 // text bounds for early fault detection
	hi  uint32

	pd *Predecode // cached decode table for [lo, hi); see Predecode
}

// NewNormalFrontend builds the standard fetch path over text already
// mapped into mem at [base, base+4*words).
func NewNormalFrontend(mem *Memory, base uint32, words int) *NormalFrontend {
	return &NormalFrontend{mem: mem, lo: base, hi: base + uint32(4*words)}
}

// Reset positions fetch at the entry address.
func (f *NormalFrontend) Reset(entry uint32) error { return f.SetPC(entry) }

// SetPC redirects fetch.
func (f *NormalFrontend) SetPC(addr uint32) error {
	if addr < f.lo || addr >= f.hi || addr%4 != 0 {
		return Faultf(FaultJumpOutsideText, 0, addr, "machine: jump to %#x outside text [%#x,%#x)", addr, f.lo, f.hi)
	}
	f.pc = addr
	return nil
}

// Fetch reads the word at PC and advances.
func (f *NormalFrontend) Fetch() (FetchInfo, error) {
	w, err := f.mem.Load32(f.pc)
	if err != nil {
		return FetchInfo{}, at(err, f.pc, 0)
	}
	fi := FetchInfo{
		Word: w, CIA: f.pc, Next: f.pc + 4, NextOK: true,
		MemAddr: f.pc, MemBytes: 4,
	}
	f.pc += 4
	return fi, nil
}

// RelTarget scales the displacement field by the 4-byte instruction size.
func (f *NormalFrontend) RelTarget(cia uint32, field int32) uint32 {
	return cia + uint32(field)*4
}

// PC returns the current fetch address.
func (f *NormalFrontend) PC() uint32 { return f.pc }

// SetRawPC repositions fetch without validation — the fused loop's
// resynchronization hook. A bad address faults on the next Fetch with the
// same error SetPC would have produced.
func (f *NormalFrontend) SetRawPC(pc uint32) { f.pc = pc }

// Predecode returns the decode table for the text window, building it on
// first use and rebuilding it when a store has hit the window since (the
// store-generation check makes self-modifying code safe: the fused loop
// additionally bails out mid-run the moment text is written).
func (f *NormalFrontend) Predecode() *Predecode {
	gen := f.mem.WatchStores(f.lo, f.hi)
	if f.pd == nil || f.pd.gen != gen {
		f.pd = PredecodeText(f.mem, f.lo, f.hi)
		f.pd.gen = gen
	}
	return f.pd
}

var _ PredecodedFrontend = (*NormalFrontend)(nil)

// WordsToBytes serializes instruction words big-endian for mapping into
// memory.
func WordsToBytes(words []uint32) []byte {
	out := make([]byte, 4*len(words))
	for i, w := range words {
		binary.BigEndian.PutUint32(out[4*i:], w)
	}
	return out
}
