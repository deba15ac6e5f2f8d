package core

import (
	"fmt"

	"repro/internal/codeword"
	"repro/internal/machine"
	"repro/internal/program"
)

// CompressedFrontend is Figure 3's fetch path: it consumes codeword units
// from compressed program memory, expanding codewords through the on-chip
// dictionary in the decode stage. PC values are absolute unit addresses;
// relative-branch displacement fields are interpreted in units.
type CompressedFrontend struct {
	img *Image
	rdr *codeword.Reader

	pc    uint32   // unit address of the item being (or about to be) fetched
	queue []uint32 // remaining instructions of the current dictionary entry
	qNext uint32   // unit address following the current item
	qAddr uint32   // unit address of the current item
}

// NewCompressedFrontend wraps an image for execution.
func NewCompressedFrontend(img *Image) *CompressedFrontend {
	return &CompressedFrontend{
		img: img,
		rdr: codeword.NewReader(img.Scheme, img.Stream, img.Units),
		pc:  img.EntryUnit,
	}
}

var _ machine.Frontend = (*CompressedFrontend)(nil)

// Reset positions fetch at an entry address.
func (f *CompressedFrontend) Reset(entry uint32) error { return f.SetPC(entry) }

// SetPC redirects fetch to an absolute unit address (branch target).
// Dictionary expansion in progress is abandoned, exactly as a taken branch
// inside an entry abandons the rest of the entry.
func (f *CompressedFrontend) SetPC(addr uint32) error {
	if addr < f.img.Base || addr >= f.img.Base+uint32(f.img.Units) {
		return machine.Faultf(machine.FaultJumpOutsideText, 0, addr,
			"core: jump to %#x outside compressed text [%#x,%#x)",
			addr, f.img.Base, f.img.Base+uint32(f.img.Units))
	}
	f.pc = addr
	f.queue = nil
	return nil
}

// RelTarget interprets branch displacement fields at codeword-unit
// granularity (§3.2.2).
func (f *CompressedFrontend) RelTarget(cia uint32, field int32) uint32 {
	return unitTarget(cia, field)
}

// unitTarget is the unit address a relative branch at cia with the given
// displacement field reaches: fields count codeword units.
func unitTarget(cia uint32, field int32) uint32 { return cia + uint32(field) }

// PC returns the current fetch unit address.
func (f *CompressedFrontend) PC() uint32 { return f.pc }

// SetRawPC repositions fetch without validation and abandons any expansion
// in progress — the fused loop's resynchronization hook. A bad address
// faults on the next Fetch.
func (f *CompressedFrontend) SetRawPC(pc uint32) {
	f.pc = pc
	f.queue = nil
}

// Predecode returns the image's predecoded table, or nil while an
// expansion is in progress: its queue holds state a table restart would
// drop.
func (f *CompressedFrontend) Predecode() *machine.Predecode {
	if len(f.queue) > 0 {
		return nil
	}
	return f.img.Predecode()
}

var _ machine.PredecodedFrontend = (*CompressedFrontend)(nil)

// Fetch returns the next instruction, expanding codewords as needed.
func (f *CompressedFrontend) Fetch() (machine.FetchInfo, error) {
	if len(f.queue) > 0 {
		// Expansion from the on-chip dictionary touches no program memory.
		// Mid-entry successors are unaddressable; only the final
		// instruction of an entry has a meaningful Next.
		w := f.queue[0]
		f.queue = f.queue[1:]
		return machine.FetchInfo{Word: w, CIA: f.qAddr, Next: f.qNext, NextOK: len(f.queue) == 0}, nil
	}
	it, err := f.rdr.At(int(f.pc - f.img.Base))
	if err != nil {
		// The item at pc runs off the end of the stream.
		return machine.FetchInfo{}, machine.Faultf(machine.FaultBadAddress, f.pc, f.pc, "%v", err)
	}
	cia := f.pc
	next := f.pc + uint32(it.Units)
	memAddr := f.byteAddr(cia)
	memBytes := (it.Units*f.img.Scheme.UnitBits() + 7) / 8
	f.pc = next
	if !it.IsCodeword {
		return machine.FetchInfo{
			Word: it.Word, CIA: cia, Next: next, NextOK: true,
			MemAddr: memAddr, MemBytes: memBytes,
		}, nil
	}
	if it.Rank >= len(f.img.Entries) {
		return machine.FetchInfo{}, machine.Faultf(machine.FaultCodewordBeyondDictionary, cia,
			uint32(it.Rank), "core: codeword %d exceeds dictionary", it.Rank)
	}
	words := f.img.Entries[it.Rank].Words
	f.queue = words[1:]
	f.qAddr = cia
	f.qNext = next
	return machine.FetchInfo{
		Word: words[0], CIA: cia, Next: next, NextOK: len(words) == 1,
		MemAddr: memAddr, MemBytes: memBytes,
		EntryRank: it.Rank, EntryLen: len(words),
	}, nil
}

// byteAddr maps a unit address to the byte address of the underlying
// program memory, for cache modeling.
func (f *CompressedFrontend) byteAddr(unitAddr uint32) uint32 {
	return machine.UnitByteAddr(f.img.Base, unitAddr-f.img.Base, uint(f.img.Scheme.UnitBits()))
}

// DictInMemoryFetches returns a TraceSlots hook that replays a run of img
// as the program-memory traffic it would make with its dictionary held in
// memory at base rather than on-chip (§3.3 discusses both placements;
// entries lie there in rank order, 4 bytes per instruction). fetch gets
// every access in fetch order: each delivered slot's stream bytes, then
// one 4-byte dictionary read per instruction the dictionary supplied for
// it — EntryLen for a slot beginning an expansion, less cut on a batch's
// last slot, and one for a Step slot continuing an expansion. The hook
// carries the expansion in progress across batches and Runs, so it serves
// one CPU from construction on.
func DictInMemoryFetches(img *Image, base uint32, fetch func(addr uint32, nbytes int)) func(*machine.Predecode, []uint32, int) {
	entryAddr := make([]uint32, len(img.Entries))
	for i, e := range img.Entries {
		entryAddr[i] = base
		base += uint32(4 * len(e.Words))
	}
	unitBits := uint(img.Scheme.UnitBits())
	next := uint32(0) // address of the expansion's next dictionary read
	return func(pd *machine.Predecode, slots []uint32, cut int) {
		for j, i := range slots {
			idx := i &^ machine.SlotTaken
			s := &pd.Slots[idx]
			n := 1 // a continuation Step delivered
			if s.MemBytes > 0 {
				pc := pd.Base + idx<<pd.Shift
				fetch(machine.UnitByteAddr(img.Base, pc-img.Base, unitBits), int(s.MemBytes))
				if s.Rank < 0 {
					continue
				}
				n, next = int(s.EntryLen), entryAddr[s.Rank]
			}
			if j == len(slots)-1 {
				n -= cut
			}
			for ; n > 0; n-- {
				fetch(next, 4)
				next += 4
			}
		}
	}
}

// NewMachine builds a CPU executing the compressed image, with data and
// stack mapped exactly as for the original program.
func NewMachine(img *Image) (*machine.CPU, error) {
	mem := machine.NewMemory()
	sp, err := machine.MapDataAndStack(mem, img.DataBase, img.Data)
	if err != nil {
		return nil, err
	}
	fe := NewCompressedFrontend(img)
	cpu := machine.New(mem, fe)
	if err := fe.Reset(img.EntryUnit); err != nil {
		return nil, err
	}
	cpu.GPR[1] = sp
	cpu.SnapshotReset()
	return cpu, nil
}

// RunBoth executes the original program and its compressed image and
// checks behavioral equivalence: identical syscall output and exit status.
// It returns both CPUs for further inspection (fetch statistics, etc.).
func RunBoth(p *program.Program, img *Image, maxSteps int64) (*machine.CPU, *machine.CPU, error) {
	orig, err := machine.NewForProgram(p)
	if err != nil {
		return nil, nil, err
	}
	st1, err := orig.Run(maxSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("core: original execution: %w", err)
	}
	comp, err := NewMachine(img)
	if err != nil {
		return nil, nil, err
	}
	st2, err := comp.Run(maxSteps)
	if err != nil {
		return nil, nil, fmt.Errorf("core: compressed execution: %w", err)
	}
	if st1 != st2 {
		return orig, comp, fmt.Errorf("core: exit status differs: %d vs %d", st1, st2)
	}
	if string(orig.Output()) != string(comp.Output()) {
		return orig, comp, fmt.Errorf("core: output differs: %q vs %q", orig.Output(), comp.Output())
	}
	return orig, comp, nil
}
