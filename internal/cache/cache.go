// Package cache implements a parameterized set-associative instruction
// cache with LRU replacement, fed by the machine's fetch trace. A
// direct-mapped access is one shift and one key compare per line; only
// an associative cache keeps LRU clocks and walks its set. It backs
// the extension experiment from the paper's introduction and future work
// (§1, §5; [Chen97a]): denser code means fewer instruction-cache misses.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/stats"
)

// Config sizes the cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Assoc     int // 0 means fully associative
}

// Stats counts accesses at line granularity.
type Stats struct {
	Accesses int64
	Misses   int64
}

// Hits is the number of accesses served without a refill.
func (s Stats) Hits() int64 { return s.Accesses - s.Misses }

// MissRate is misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is the simulator. Line number ln (address >> lineShift) lives in
// set ln&setMask, whose ways are keys[set*assoc : (set+1)*assoc]. A way's
// key is its line number plus one, 0 meaning empty: the whole line number
// is the tag. Keys are 64 bits wide so that the last line of the address
// space still has a key distinct from 0.
type Cache struct {
	keys      []uint64
	used      []int64 // LRU clock per way; nil when direct-mapped
	assoc     int
	lineShift uint
	setMask   uint64 // nsets-1: nsets is a power of two
	clock     int64
	Stats     Stats
}

// New validates the configuration and builds the cache.
func New(cfg Config) (*Cache, error) {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a positive power of two", cfg.LineBytes)
	}
	if cfg.SizeBytes <= 0 || cfg.SizeBytes%cfg.LineBytes != 0 {
		return nil, fmt.Errorf("cache: size %d not a multiple of line size", cfg.SizeBytes)
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	assoc := cfg.Assoc
	if assoc <= 0 || assoc > lines {
		assoc = lines // fully associative
	}
	if lines%assoc != 0 {
		return nil, fmt.Errorf("cache: %d lines not divisible by associativity %d", lines, assoc)
	}
	nsets := lines / assoc
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: %d sets not a power of two", nsets)
	}
	c := &Cache{
		keys:      make([]uint64, lines),
		assoc:     assoc,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(nsets - 1),
	}
	if assoc > 1 {
		c.used = make([]int64, lines)
	}
	return c, nil
}

// Access touches [addr, addr+nbytes), accessing every line the range
// covers. The range is taken as is, without wrapping at 4 GiB.
func (c *Cache) Access(addr uint32, nbytes int) {
	if nbytes <= 0 {
		return
	}
	first := uint64(addr) >> c.lineShift
	last := (uint64(addr) + uint64(nbytes) - 1) >> c.lineShift
	c.Stats.Accesses += int64(last - first + 1)
	if c.used == nil { // direct-mapped: one key compare per line
		for ln := first; ln <= last; ln++ {
			if k := &c.keys[ln&c.setMask]; *k != ln+1 {
				*k = ln + 1
				c.Stats.Misses++
			}
		}
		return
	}
	for ln := first; ln <= last; ln++ {
		c.touchSet(ln)
	}
}

// touchSet looks ln up in its set, refreshing its LRU clock on a hit and
// filling a way on a miss. An empty way's clock is 0 and a filled way's
// at least 1, so the victim — the first way with the smallest clock — is
// the first empty way, else the least recently used.
func (c *Cache) touchSet(ln uint64) {
	c.clock++
	base := int(ln&c.setMask) * c.assoc
	keys := c.keys[base : base+c.assoc]
	used := c.used[base : base+c.assoc]
	victim := 0
	for i, k := range keys {
		if k == ln+1 {
			used[i] = c.clock
			return
		}
		if used[i] < used[victim] {
			victim = i
		}
	}
	c.Stats.Misses++
	keys[victim] = ln + 1
	used[victim] = c.clock
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.keys)
	clear(c.used)
	c.clock = 0
	c.Stats = Stats{}
}

// Report adds the cache's totals to the recorder as the cache.accesses,
// cache.hits and cache.misses counters, making the I-cache model visible
// in stats output. Nil-safe on the recorder side.
func (c *Cache) Report(r *stats.Recorder) {
	r.Add("cache.accesses", c.Stats.Accesses)
	r.Add("cache.hits", c.Stats.Hits())
	r.Add("cache.misses", c.Stats.Misses)
}

// SamplePoint is one point of a cache hit/miss time series: the
// cumulative statistics after Access line accesses.
type SamplePoint struct {
	Access int64 `json:"access"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Sampler wraps a cache's Access as a machine TraceFetch hook and records
// the cumulative hit/miss curve every Every line accesses — the data
// behind a miss-rate-over-time plot.
type Sampler struct {
	Cache  *Cache
	Every  int64
	Points []SamplePoint

	last int64 // accesses at the previous sample
}

// NewSampler wraps the cache; every must be positive.
func NewSampler(c *Cache, every int64) (*Sampler, error) {
	if every <= 0 {
		return nil, fmt.Errorf("cache: sample interval %d not positive", every)
	}
	return &Sampler{Cache: c, Every: every}, nil
}

// Access forwards to the cache and samples the running totals. One call
// may touch several lines, so sampling triggers on crossing the interval
// rather than equality.
func (s *Sampler) Access(addr uint32, nbytes int) {
	s.Cache.Access(addr, nbytes)
	if st := s.Cache.Stats; st.Accesses-s.last >= s.Every {
		s.last = st.Accesses
		s.Points = append(s.Points, SamplePoint{
			Access: st.Accesses, Hits: st.Hits(), Misses: st.Misses,
		})
	}
}
