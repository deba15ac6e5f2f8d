// Package stats is the observability layer of the experiment engine:
// a concurrency-safe Recorder of named counters, phase timers and
// log2-bucketed value histograms that the compression pipeline
// (dictionary build, core phases, machine execution) reports into when a
// caller threads one through. All hooks are optional — every method is a
// no-op on a nil *Recorder — so the hot paths carry no cost unless a
// caller asks for instrumentation.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Recorder accumulates counters, phase durations and value histograms.
// The zero value is not usable; call New. A nil *Recorder is a valid sink
// that discards everything.
type Recorder struct {
	mu       sync.Mutex
	counters map[string]int64
	phases   map[string]Phase
	hists    map[string]*histAcc
}

// Phase is the accumulated timing of one named phase.
type Phase struct {
	Count int64 `json:"count"` // completed invocations
	Nanos int64 `json:"nanos"` // total duration in nanoseconds
}

// Duration returns the accumulated time.
func (p Phase) Duration() time.Duration { return time.Duration(p.Nanos) }

// New creates an empty recorder.
func New() *Recorder {
	return &Recorder{
		counters: map[string]int64{},
		phases:   map[string]Phase{},
		hists:    map[string]*histAcc{},
	}
}

// Add increments the named counter by n. Adding zero still materializes
// the counter key, which instrumented code uses deliberately: a counter
// that *can* stay at zero (e.g. dict.reevaluations) is reported as 0
// rather than absent, so snapshots distinguish "nothing happened" from
// "not instrumented".
func (r *Recorder) Add(name string, n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += n
	r.mu.Unlock()
}

// Observe accumulates one completed invocation of the named phase.
func (r *Recorder) Observe(name string, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	p := r.phases[name]
	p.Count++
	p.Nanos += int64(d)
	r.phases[name] = p
	r.mu.Unlock()
}

// Time starts a phase timer and returns the function that stops it:
//
//	defer r.Time("core.build")()
//
// The returned stop is safe to call on a timer from a nil recorder.
func (r *Recorder) Time(name string) func() {
	if r == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { r.Observe(name, time.Since(t0)) }
}

// ObserveValue folds one value into the named histogram. Distributions
// accumulate in log2 buckets, so the cost is a couple of integer
// operations regardless of the value range.
func (r *Recorder) ObserveValue(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &histAcc{}
		r.hists[name] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// Merge folds a snapshot into the recorder (engine totals aggregate
// per-experiment recorders this way).
func (r *Recorder) Merge(s Snapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range s.Counters {
		r.counters[k] += v
	}
	for k, v := range s.Phases {
		p := r.phases[k]
		p.Count += v.Count
		p.Nanos += v.Nanos
		r.phases[k] = p
	}
	for k, v := range s.Hists {
		h := r.hists[k]
		if h == nil {
			h = &histAcc{}
			r.hists[k] = h
		}
		h.merge(v)
	}
}

// Snapshot is a point-in-time copy of a recorder, safe to read and
// serialize while the recorder keeps accumulating.
type Snapshot struct {
	Counters map[string]int64     `json:"counters,omitempty"`
	Phases   map[string]Phase     `json:"phases,omitempty"`
	Hists    map[string]Histogram `json:"hists,omitempty"`
}

// Snapshot copies the current state. A nil recorder yields an empty
// snapshot.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]int64, len(r.counters)),
		Phases:   make(map[string]Phase, len(r.phases)),
	}
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.phases {
		s.Phases[k] = v
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]Histogram, len(r.hists))
		for k, h := range r.hists {
			s.Hists[k] = h.snapshot()
		}
	}
	return s
}

// Counter returns one counter's value from the snapshot.
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Phase returns one phase's accumulated timing.
func (s Snapshot) Phase(name string) Phase { return s.Phases[name] }

// Hist returns one histogram from the snapshot (zero value if absent).
func (s Snapshot) Hist(name string) Histogram { return s.Hists[name] }

// Summary renders the snapshot as sorted "name=value" fields — counters
// as "k=v", phases as "k=1.2ms/3", histograms as "k=n3/p50=8/p99=31" —
// for table footers and log lines. Fields sort lexicographically by their
// rendered text, so the order is deterministic for any snapshot.
func (s Snapshot) Summary() string {
	fields := make([]string, 0, len(s.Counters)+len(s.Phases)+len(s.Hists))
	for k, v := range s.Counters {
		fields = append(fields, fmt.Sprintf("%s=%d", k, v))
	}
	for k, v := range s.Phases {
		fields = append(fields, fmt.Sprintf("%s=%.1fms/%d", k, float64(v.Nanos)/1e6, v.Count))
	}
	for k, h := range s.Hists {
		fields = append(fields, fmt.Sprintf("%s=n%d/p50=%d/p99=%d", k, h.Count, h.P50, h.P99))
	}
	sort.Strings(fields)
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(f)
	}
	return b.String()
}
