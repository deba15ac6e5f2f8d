// Package cache implements a parameterized set-associative instruction
// cache with LRU replacement, fed by the machine's fetch trace. It backs
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

type line struct {
	tag   uint32
	valid bool
	used  int64 // LRU clock
}

// Cache is the simulator. Set i occupies lines[i*assoc : (i+1)*assoc].
type Cache struct {
	cfg     Config
	lines   []line
	assoc   int
	setMask uint32 // nsets-1: nsets is a power of two
	setBits int    // log2(nsets)
	clock   int64
	Stats   Stats
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
	return &Cache{
		cfg:     cfg,
		lines:   make([]line, lines),
		assoc:   assoc,
		setMask: uint32(nsets - 1),
		setBits: bits.TrailingZeros(uint(nsets)),
	}, nil
}

// Access touches [addr, addr+nbytes), accessing every line the range
// covers.
func (c *Cache) Access(addr uint32, nbytes int) {
	if nbytes <= 0 {
		return
	}
	lb := uint32(c.cfg.LineBytes)
	first := addr / lb
	last := (addr + uint32(nbytes) - 1) / lb
	for ln := first; ; ln++ {
		c.touchLine(ln)
		if ln == last {
			break
		}
	}
}

func (c *Cache) touchLine(lineAddr uint32) {
	c.clock++
	c.Stats.Accesses++
	first := int(lineAddr&c.setMask) * c.assoc
	set := c.lines[first : first+c.assoc]
	tag := lineAddr >> c.setBits
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.clock
			return
		}
		if set[i].used < set[victim].used || !set[i].valid && set[victim].valid {
			victim = i
		}
	}
	// Miss: fill the LRU (or an invalid) way.
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	c.Stats.Misses++
	set[victim] = line{tag: tag, valid: true, used: c.clock}
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.lines)
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
