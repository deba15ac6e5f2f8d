package cache

import (
	"fmt"
	"testing"

	"repro/internal/stats"
)

func mk(t *testing.T, size, line, assoc int) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: size, LineBytes: line, Assoc: assoc})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SizeBytes: 1024, LineBytes: 0},
		{SizeBytes: 1024, LineBytes: 24},
		{SizeBytes: 1000, LineBytes: 32},
		{SizeBytes: 0, LineBytes: 32},
		{SizeBytes: 1024, LineBytes: 32, Assoc: 3}, // 32 lines % 3 != 0
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestColdMissesThenHits(t *testing.T) {
	c := mk(t, 1024, 32, 1)
	for i := 0; i < 8; i++ {
		c.Access(uint32(i*32), 4)
	}
	if c.Stats.Misses != 8 || c.Stats.Accesses != 8 {
		t.Fatalf("cold: %+v", c.Stats)
	}
	for i := 0; i < 8; i++ {
		c.Access(uint32(i*32), 4)
	}
	if c.Stats.Misses != 8 || c.Stats.Accesses != 16 {
		t.Fatalf("warm: %+v", c.Stats)
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	// 1KB direct-mapped, 32B lines = 32 sets. Addresses 0 and 1024 map to
	// the same set and evict each other forever.
	c := mk(t, 1024, 32, 1)
	for i := 0; i < 10; i++ {
		c.Access(0, 4)
		c.Access(1024, 4)
	}
	if c.Stats.Misses != 20 {
		t.Fatalf("conflict misses %d, want 20", c.Stats.Misses)
	}
}

func TestTwoWayAbsorbsConflict(t *testing.T) {
	c := mk(t, 1024, 32, 2)
	for i := 0; i < 10; i++ {
		c.Access(0, 4)
		c.Access(1024, 4)
	}
	if c.Stats.Misses != 2 {
		t.Fatalf("2-way misses %d, want 2 cold", c.Stats.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way set: A, B fill the set; touching A then inserting C must
	// evict B, not A.
	c := mk(t, 64, 32, 2) // a single set of 2 ways
	a, b, x := uint32(0), uint32(64), uint32(128)
	c.Access(a, 4) // miss
	c.Access(b, 4) // miss
	c.Access(a, 4) // hit, A most recent
	c.Access(x, 4) // miss, evicts B
	c.Access(a, 4) // hit
	c.Access(b, 4) // miss (was evicted)
	if c.Stats.Misses != 4 {
		t.Fatalf("misses %d, want 4", c.Stats.Misses)
	}
}

func TestStraddlingAccess(t *testing.T) {
	c := mk(t, 1024, 32, 1)
	c.Access(30, 4) // covers lines 0 and 1
	if c.Stats.Accesses != 2 || c.Stats.Misses != 2 {
		t.Fatalf("straddle: %+v", c.Stats)
	}
}

func TestFullyAssociative(t *testing.T) {
	c := mk(t, 128, 32, 0) // 4 lines fully associative
	for i := 0; i < 4; i++ {
		c.Access(uint32(i*4096), 4)
	}
	for i := 0; i < 4; i++ {
		c.Access(uint32(i*4096), 4)
	}
	if c.Stats.Misses != 4 {
		t.Fatalf("fully associative misses %d, want 4", c.Stats.Misses)
	}
}

func TestResetClears(t *testing.T) {
	c := mk(t, 1024, 32, 2)
	c.Access(0, 4)
	c.Reset()
	if c.Stats.Accesses != 0 {
		t.Fatal("stats survived reset")
	}
	c.Access(0, 4)
	if c.Stats.Misses != 1 {
		t.Fatal("contents survived reset")
	}
}

func TestMissRate(t *testing.T) {
	c := mk(t, 1024, 32, 1)
	if c.Stats.MissRate() != 0 {
		t.Fatal("empty miss rate")
	}
	c.Access(0, 4)
	c.Access(0, 4)
	if got := c.Stats.MissRate(); got != 0.5 {
		t.Fatalf("miss rate %f", got)
	}
}

// TestLRUAgainstReference drives the cache and an obviously-correct
// reference model (per-set slice with explicit recency ordering) with the
// same random access stream and requires identical per-access hit/miss
// counts and identical final Stats. The table covers direct-mapped, 2-way,
// 4-way and fully associative caches at line sizes 1, 4 and 32; accesses
// straddle up to three lines, and half of them fall in the last 64 lines
// below 4 GiB, some running past 0xFFFFFFFF.
func TestLRUAgainstReference(t *testing.T) {
	for _, line := range []int{1, 4, 32} {
		for _, assoc := range []int{1, 2, 4, 0} {
			size := 16 * line
			t.Run(fmt.Sprintf("line%d/assoc%d", line, assoc), func(t *testing.T) {
				c := mk(t, size, line, assoc)
				ways := assoc
				if ways == 0 {
					ways = size / line
				}
				nsets := uint64(size / line / ways)

				type refSet []uint64 // line numbers, most recent last
				ref := make([]refSet, nsets)
				refTouch := func(ln uint64) bool { // returns hit
					set := &ref[ln%nsets]
					for i, have := range *set {
						if have == ln {
							*set = append(append((*set)[:i:i], (*set)[i+1:]...), ln)
							return true
						}
					}
					*set = append(*set, ln)
					if len(*set) > ways {
						*set = (*set)[1:]
					}
					return false
				}
				var want Stats
				refAccess := func(addr uint32, nbytes int) (accesses, misses int64) {
					first := uint64(addr) / uint64(line)
					last := (uint64(addr) + uint64(nbytes) - 1) / uint64(line)
					for ln := first; ln <= last; ln++ {
						accesses++
						if !refTouch(ln) {
							misses++
						}
					}
					want.Accesses += accesses
					want.Misses += misses
					return accesses, misses
				}

				// The first access is the last byte of the address space
				// into the empty cache: a miss, not a match of an empty way.
				if a, m := refAccess(0xFFFFFFFF, 1); a != 1 || m != 1 {
					t.Fatalf("reference: top byte accesses=%d misses=%d", a, m)
				}
				c.Access(0xFFFFFFFF, 1)
				if c.Stats != want {
					t.Fatalf("top byte into empty cache: %+v, want %+v", c.Stats, want)
				}

				top := uint32(0xFFFFFFFF - 64*line + 1) // the last 64 lines
				rng := uint32(12345)
				next := func(n uint32) uint32 {
					rng = rng*1664525 + 1013904223
					return (rng >> 8) % n
				}
				for i := 0; i < 20000; i++ {
					base := uint32(0)
					if next(2) == 1 {
						base = top
					}
					// 64 distinct lines over 16 cache slots; an offset
					// within the line and up to 2*line+1 bytes cover at
					// most three lines.
					addr := base + next(64)*uint32(line) + next(uint32(line))
					nbytes := 1 + int(next(uint32(2*line+1)))
					before := c.Stats
					c.Access(addr, nbytes)
					wa, wm := refAccess(addr, nbytes)
					if ga, gm := c.Stats.Accesses-before.Accesses, c.Stats.Misses-before.Misses; ga != wa || gm != wm {
						t.Fatalf("access %d (%#x+%d): cache accesses=%d misses=%d, reference accesses=%d misses=%d",
							i, addr, nbytes, ga, gm, wa, wm)
					}
				}
				if c.Stats != want {
					t.Fatalf("final stats %+v, reference %+v", c.Stats, want)
				}
			})
		}
	}
}

func TestZeroByteAccessIgnored(t *testing.T) {
	c := mk(t, 1024, 32, 1)
	c.Access(0, 0)
	if c.Stats.Accesses != 0 {
		t.Fatal("zero-byte access counted")
	}
}

func TestReportCounters(t *testing.T) {
	c := mk(t, 1024, 32, 1)
	c.Access(0, 4)  // miss
	c.Access(0, 4)  // hit
	c.Access(32, 4) // miss
	rec := stats.New()
	c.Report(rec)
	s := rec.Snapshot()
	if s.Counter("cache.accesses") != 3 || s.Counter("cache.hits") != 1 || s.Counter("cache.misses") != 2 {
		t.Fatalf("counters: %s", s.Summary())
	}
	c.Report(nil) // nil recorder must be a safe sink
}

func TestSampler(t *testing.T) {
	c := mk(t, 1024, 32, 1)
	s, err := NewSampler(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSampler(c, 0); err == nil {
		t.Fatal("zero interval accepted")
	}
	for i := 0; i < 10; i++ {
		s.Access(uint32(i*32), 4) // every access a distinct line: all misses
	}
	if c.Stats.Accesses != 10 || c.Stats.Misses != 10 {
		t.Fatalf("cache stats: %+v", c.Stats)
	}
	if len(s.Points) != 2 {
		t.Fatalf("points: %+v", s.Points)
	}
	for i, p := range s.Points {
		if p.Access != int64(4*(i+1)) || p.Misses != p.Access || p.Hits != 0 {
			t.Fatalf("point %d: %+v", i, p)
		}
	}
}

func TestSamplerCrossingInterval(t *testing.T) {
	// A single Access spanning many lines must still produce a sample once
	// the cumulative count crosses the interval.
	c := mk(t, 1024, 32, 1)
	s, err := NewSampler(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	s.Access(0, 7*32) // touches 7 or 8 lines in one call
	if len(s.Points) != 1 {
		t.Fatalf("points: %+v", s.Points)
	}
}

func TestSamplerZeroAccesses(t *testing.T) {
	// A run that never touches the cache produces no points and leaves the
	// totals untouched.
	c := mk(t, 1024, 32, 1)
	s, err := NewSampler(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 0 {
		t.Fatalf("points before any access: %+v", s.Points)
	}
	if c.Stats.Accesses != 0 || c.Stats.Misses != 0 {
		t.Fatalf("stats before any access: %+v", c.Stats)
	}
}

func TestSamplerSingleAccess(t *testing.T) {
	// One access with an interval of 1 yields exactly one point carrying
	// the cold miss.
	c := mk(t, 1024, 32, 1)
	s, err := NewSampler(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.Access(0, 4)
	if len(s.Points) != 1 {
		t.Fatalf("points: %+v", s.Points)
	}
	p := s.Points[0]
	if p.Access != 1 || p.Misses != 1 || p.Hits != 0 {
		t.Fatalf("point: %+v", p)
	}
}

func TestSamplerIntervalLargerThanTrace(t *testing.T) {
	// An interval longer than the whole access trace never samples; the
	// curve is empty but the cache totals still record the run.
	c := mk(t, 1024, 32, 1)
	s, err := NewSampler(c, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Access(uint32(32*i), 4)
	}
	if len(s.Points) != 0 {
		t.Fatalf("points: %+v", s.Points)
	}
	if c.Stats.Accesses != 10 {
		t.Fatalf("accesses %d, want 10", c.Stats.Accesses)
	}
}
