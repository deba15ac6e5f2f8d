// Package trace provides lightweight span tracing for the compression and
// simulation pipeline: a concurrency-safe collector of named spans (ID,
// parent, attributes, wall-clock interval) with a Chrome trace-event JSON
// exporter (loadable in chrome://tracing and Perfetto).
//
// Like the stats recorder, every entry point is nil-safe: a nil *Tracer
// yields nil *Spans, and every method of a nil *Span is a no-op, so
// instrumented code never checks whether tracing is enabled.
//
// A span opened with Phase is also a stats.Recorder phase timer: its one
// measured duration is both the span's Dur and the phase's Nanos.
package trace

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// Tracer collects spans. The zero value is not usable; call New. A nil
// *Tracer is a valid sink that discards everything.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []*Span
}

// New creates an empty tracer. Span timestamps are offsets from this
// moment.
func New() *Tracer { return &Tracer{t0: time.Now()} }

// Attr is one span attribute.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation. Spans are created by Tracer.Root,
// Span.Child and Span.Phase and finished with End; attributes may be
// attached at any point in between. A span is owned by the goroutine that
// created it — concurrent children are fine (each goroutine gets its own
// span), but a single span must not be mutated from two goroutines.
type Span struct {
	tr     *Tracer // nil for a detached phase span
	rec    *stats.Recorder
	id     int64
	parent int64 // 0 = root

	name  string
	begin time.Time

	mu    sync.Mutex // guards the mutable tail against concurrent export
	attrs []Attr
	dur   time.Duration
	ended bool
}

// start allocates and registers a span.
func (t *Tracer) start(parent int64, name string) *Span {
	s := &Span{tr: t, parent: parent, name: name, begin: time.Now()}
	t.mu.Lock()
	t.next++
	s.id = t.next
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Root opens a top-level span. Nil-safe.
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(0, name)
}

// Len reports the number of spans collected so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Child opens a span nested under s. Nil-safe: a nil or detached
// receiver yields nil, so an untraced pipeline builds no spans at all.
func (s *Span) Child(name string) *Span {
	if s == nil || s.tr == nil {
		return nil
	}
	return s.tr.start(s.id, name)
}

// Phase opens a child span whose End also adds its duration to rec's
// phase of the same name, so the span and the phase share one clock
// reading. Under a nil or detached s it returns a detached span that
// records the phase and nothing else; with s and rec both nil it returns
// nil and allocates nothing. Nil rec makes it Child.
func (s *Span) Phase(name string, rec *stats.Recorder) *Span {
	sp := s.Child(name)
	if sp == nil {
		if rec == nil {
			return nil
		}
		sp = &Span{name: name, begin: time.Now()}
	}
	sp.rec = rec
	return sp
}

// Set attaches a string attribute and returns s for chaining. Nil-safe;
// a detached span discards it.
func (s *Span) Set(key, value string) *Span {
	if s == nil || s.tr == nil {
		return s
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
	return s
}

// SetInt attaches an integer attribute. Nil-safe; a detached span
// discards it.
func (s *Span) SetInt(key string, v int64) *Span {
	if s == nil || s.tr == nil {
		return s
	}
	return s.Set(key, itoa(v))
}

// End closes the span, fixing its duration, and adds that duration to
// the phase of a span opened with Phase. Nil-safe; ending twice keeps the
// first duration and records the phase once.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.begin)
	s.mu.Lock()
	first := !s.ended
	if first {
		s.ended = true
		s.dur = d
	}
	s.mu.Unlock()
	if first {
		s.rec.Observe(s.name, d)
	}
}

// SpanInfo is the exported, immutable view of one span.
type SpanInfo struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	Ended  bool          `json:"ended"`
}

// Spans snapshots every collected span in creation order. Unended spans
// report the elapsed time so far. Safe to call while spans are still
// being created and mutated.
func (t *Tracer) Spans() []SpanInfo {
	if t == nil {
		return nil
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()

	out := make([]SpanInfo, len(spans))
	for i, s := range spans {
		s.mu.Lock()
		info := SpanInfo{
			ID: s.id, Parent: s.parent, Name: s.name,
			Start: s.begin.Sub(t.t0), Dur: s.dur, Ended: s.ended,
			Attrs: append([]Attr(nil), s.attrs...),
		}
		s.mu.Unlock()
		if !info.Ended {
			info.Dur = now - info.Start
		}
		out[i] = info
	}
	return out
}

// itoa is strconv.FormatInt(v, 10) without pulling strconv into the hot
// path's inlining budget; attribute writes are rare.
func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var buf [20]byte
	i := len(buf)
	u := uint64(v)
	if neg {
		u = uint64(-v)
	}
	for u > 0 {
		i--
		buf[i] = byte('0' + u%10)
		u /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
