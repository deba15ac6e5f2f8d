package machine

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/ppc"
	"repro/internal/program"
)

// The store-generation watch is what lets the fused fast loop trust a
// predecode table: these tests pin its semantics for overlapping and
// adjacent regions and across Reset, the staleness paths runFast depends
// on.

func watchMem(t *testing.T) *Memory {
	t.Helper()
	m := NewMemory()
	if err := m.Map("text", 0x1000, make([]byte, 0x1000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Map("text2", 0x2000, make([]byte, 0x1000)); err != nil {
		t.Fatal(err)
	}
	if err := m.Map("data", 0x4000, make([]byte, 0x1000)); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWatchStoresOverlappingRegions(t *testing.T) {
	// A watch range straddling two regions marks both; the unrelated data
	// region stays unwatched.
	m := watchMem(t)
	g0 := m.WatchStores(0x1800, 0x2800)
	if err := m.Store32(0x1804, 1); err != nil {
		t.Fatal(err)
	}
	if g1 := m.WatchStores(0, 0); g1 != g0+1 {
		t.Fatalf("store into first watched region: gen %d, want %d", g1, g0+1)
	}
	if err := m.Store32(0x2804, 1); err != nil {
		t.Fatal(err)
	}
	if g2 := m.WatchStores(0, 0); g2 != g0+2 {
		t.Fatalf("store into second watched region: gen %d, want %d", g2, g0+2)
	}
	if err := m.Store32(0x4000, 1); err != nil {
		t.Fatal(err)
	}
	if g3 := m.WatchStores(0, 0); g3 != g0+2 {
		t.Fatalf("store into unwatched data moved gen to %d", g3)
	}
}

func TestWatchStoresAdjacentRegion(t *testing.T) {
	// The watch interval is half-open: [0x1000, 0x2000) touches text but
	// not the region that begins exactly at 0x2000.
	m := watchMem(t)
	g0 := m.WatchStores(0x1000, 0x2000)
	if err := m.Store32(0x2000, 7); err != nil {
		t.Fatal(err)
	}
	if g := m.WatchStores(0, 0); g != g0 {
		t.Fatalf("store into adjacent region advanced gen %d -> %d", g0, g)
	}
	if err := m.Store32(0x1FFC, 7); err != nil {
		t.Fatal(err)
	}
	if g := m.WatchStores(0, 0); g != g0+1 {
		t.Fatalf("store into last watched word: gen %d, want %d", g, g0+1)
	}
	// Watching is idempotent: re-watching an already-watched region must
	// not double-count subsequent stores.
	m.WatchStores(0x1000, 0x2000)
	m.WatchStores(0x1800, 0x1801)
	if err := m.Store32(0x1800, 7); err != nil {
		t.Fatal(err)
	}
	if g := m.WatchStores(0, 0); g != g0+2 {
		t.Fatalf("re-watched store advanced gen to %d, want %d", g, g0+2)
	}
}

func TestWatchStoresResetInteraction(t *testing.T) {
	// Reset restores bytes a predecode table may have been built against
	// mid-run, so it must advance the generation when (and only when) a
	// watched store happened since Snapshot.
	m := watchMem(t)
	m.Snapshot()
	g0 := m.WatchStores(0x1000, 0x2000)

	// Clean snapshot, no stores: Reset restores identical bytes, so any
	// table built before it is still valid and the generation holds.
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if g := m.WatchStores(0, 0); g != g0 {
		t.Fatalf("Reset without stores advanced gen %d -> %d", g0, g)
	}

	// A watched store then Reset: the restored bytes differ from what a
	// table built after the store saw, so Reset advances once more.
	if err := m.Store32(0x1000, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	gStore := m.WatchStores(0, 0)
	if gStore != g0+1 {
		t.Fatalf("watched store: gen %d, want %d", gStore, g0+1)
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if g := m.WatchStores(0, 0); g != gStore+1 {
		t.Fatalf("Reset after store: gen %d, want %d", g, gStore+1)
	}
	if v, err := m.Load32(0x1000); err != nil || v != 0 {
		t.Fatalf("Reset did not restore bytes: %#x, %v", v, err)
	}

	// An unwatched store does not dirty the generation, so the following
	// Reset holds it steady again.
	if err := m.Store32(0x4000, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	gAfter := m.WatchStores(0, 0)
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if g := m.WatchStores(0, 0); g != gAfter {
		t.Fatalf("Reset after unwatched store advanced gen %d -> %d", gAfter, g)
	}

	// Reset leaves no page dirty, so a second Reset with no store since
	// has nothing to restore and holds the generation too.
	for _, name := range []string{"text", "text2", "data"} {
		if d := dirtyPages(t, m, name); len(d) != 0 {
			t.Fatalf("%s pages %v still dirty after Reset", name, d)
		}
	}
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	if g := m.WatchStores(0, 0); g != gAfter {
		t.Fatalf("Reset with no stores advanced gen %d -> %d", gAfter, g)
	}
}

// Dirty-page tracking: Reset rewrites only the 1 KiB pages findW marked,
// so every way a store can land — across a page boundary, at a region's
// ragged end, as one stmw over two pages — must mark every page it
// touched, and Snapshot must start a clean set.

const (
	pagedData  = 0x4000  // 2500 bytes: pages 0-1 whole, page 2 partial
	pagedStack = 0x10000 // 8 all-zero pages
)

func pagedMem(t *testing.T) *Memory {
	t.Helper()
	m := NewMemory()
	data := make([]byte, 2500)
	for i := range data {
		data[i] = byte(i*7 + 1)
	}
	if err := m.Map("data", pagedData, data); err != nil {
		t.Fatal(err)
	}
	if err := m.Map("stack", pagedStack, make([]byte, 8<<pageShift)); err != nil {
		t.Fatal(err)
	}
	return m
}

// dirtyPages lists the region's pages marked dirty, in ascending order.
func dirtyPages(t *testing.T, m *Memory, name string) []int {
	t.Helper()
	for i := range m.regions {
		r := &m.regions[i]
		if r.name != name {
			continue
		}
		out := []int{}
		for w, word := range r.dirty {
			for ; word != 0; word &= word - 1 {
				out = append(out, w*64+bits.TrailingZeros64(word))
			}
		}
		return out
	}
	t.Fatalf("no region %q", name)
	return nil
}

func wantDirty(t *testing.T, m *Memory, name string, want ...int) {
	t.Helper()
	if got := dirtyPages(t, m, name); !slices.Equal(got, want) {
		t.Fatalf("%s dirty pages %v, want %v", name, got, want)
	}
}

// resetRestores resets m and demands each region equals want byte for
// byte with no page left dirty.
func resetRestores(t *testing.T, m *Memory, want map[string][]byte) {
	t.Helper()
	if err := m.Reset(); err != nil {
		t.Fatal(err)
	}
	for _, r := range m.regions {
		if !bytes.Equal(r.data, want[r.name]) {
			t.Fatalf("region %s differs from its snapshot after Reset", r.name)
		}
		wantDirty(t, m, r.name)
	}
}

func TestDirtyStraddlingStores(t *testing.T) {
	m := pagedMem(t)
	m.Snapshot()
	want := RegionBytes(m)
	if err := m.Store32(pagedData+1<<pageShift-2, 0xAABBCCDD); err != nil {
		t.Fatal(err)
	}
	if err := m.Store16(pagedStack+2<<pageShift-1, 0xEEFF); err != nil {
		t.Fatal(err)
	}
	wantDirty(t, m, "data", 0, 1)
	wantDirty(t, m, "stack", 1, 2)
	resetRestores(t, m, want)
}

func TestDirtyLastBytesOfRegion(t *testing.T) {
	m := pagedMem(t)
	m.Snapshot()
	want := RegionBytes(m)
	if err := m.Store32(pagedData+2500-4, 0xFFFFFFFF); err != nil {
		t.Fatal(err)
	}
	if err := m.Store8(pagedData+2500-1, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Store32(pagedStack+8<<pageShift-4, 0xFFFFFFFF); err != nil {
		t.Fatal(err)
	}
	wantDirty(t, m, "data", 2)
	wantDirty(t, m, "stack", 7)
	resetRestores(t, m, want)
}

func TestDirtyStmwAcrossPages(t *testing.T) {
	// stmw r24 writes 32 bytes starting 16 below the data region's first
	// page boundary: one instruction, two pages.
	b := program.NewBuilder("stmw")
	f := b.Func("main")
	addr := uint32(program.DefaultDataBase + 1<<pageShift - 16)
	for r := uint8(24); r <= 31; r++ {
		f.Emit(ppc.Li(r, int32(r)))
	}
	f.Emit(ppc.Lis(9, int32(int16(addr>>16))))
	f.Emit(ppc.Ori(9, 9, int32(addr&0xFFFF)))
	f.Emit(ppc.Stmw(24, 0, 9))
	emitExit(f)
	p, err := b.Link()
	if err != nil {
		t.Fatal(err)
	}
	if p.DataBase != program.DefaultDataBase {
		t.Fatalf("data base %#x, want %#x", p.DataBase, program.DefaultDataBase)
	}
	cpu, err := NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	want := RegionBytes(cpu.Mem)
	if _, err := cpu.Run(1000); err != nil {
		t.Fatal(err)
	}
	if v, err := cpu.Mem.Load32(addr + 28); err != nil || v != 31 {
		t.Fatalf("stmw stored r31 as %d, %v", v, err)
	}
	wantDirty(t, cpu.Mem, "data", 0, 1)
	wantDirty(t, cpu.Mem, "text")
	wantDirty(t, cpu.Mem, "stack")
	resetRestores(t, cpu.Mem, want)
}

func TestResetKeepsPreSnapshotStores(t *testing.T) {
	// A store before Snapshot is part of the snapshot: Reset copies its
	// page back rather than zero-filling it, although the region was
	// all-zero when mapped.
	m := pagedMem(t)
	const page3, page5 = pagedStack + 3<<pageShift, pagedStack + 5<<pageShift
	if err := m.Store32(page3, 0xDEAD); err != nil {
		t.Fatal(err)
	}
	m.Snapshot()
	want := RegionBytes(m)
	wantDirty(t, m, "stack")
	if err := m.Store32(page3, 0xBEEF); err != nil {
		t.Fatal(err)
	}
	if err := m.Store32(page5, 1); err != nil {
		t.Fatal(err)
	}
	resetRestores(t, m, want)
	if v, _ := m.Load32(page3); v != 0xDEAD {
		t.Fatalf("pre-snapshot store reads %#x after Reset, want 0xDEAD", v)
	}
}

func TestSecondSnapshotStartsClean(t *testing.T) {
	m := pagedMem(t)
	m.Snapshot()
	const addr = pagedData + 1<<pageShift + 8
	if err := m.Store32(addr, 7); err != nil {
		t.Fatal(err)
	}
	m.Snapshot()
	wantDirty(t, m, "data")
	want := RegionBytes(m)
	resetRestores(t, m, want)
	if v, _ := m.Load32(addr); v != 7 {
		t.Fatalf("second snapshot's bytes read %#x after Reset, want 7", v)
	}
}
