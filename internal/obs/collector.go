package obs

import (
	"runtime"
	"strings"

	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/sizeaudit"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Collector is the single sink a run threads its telemetry through: it
// owns the stats recorder and tracer the run reports into, accumulates
// the per-run artifacts (profile, guest profile, size audit) as the tools
// produce them, and assembles everything into one Bundle. Like
// stats.Recorder, a nil *Collector is a valid sink that discards
// everything — callers thread it unconditionally and pay nothing when no
// bundle was requested.
type Collector struct {
	id      Identity
	rec     *stats.Recorder
	tracer  *trace.Tracer
	profile *core.RunProfile
	guest   *guestprof.Profile
	folded  string
	audit   *sizeaudit.Audit
}

// NewCollector creates a collector for one run. A missing GoVersion is
// filled from the running toolchain; Timestamp stays exactly as the
// caller passed it (possibly empty), so deterministic producers — tests,
// golden fixtures — control it fully.
func NewCollector(id Identity) *Collector {
	if id.GoVersion == "" {
		id.GoVersion = runtime.Version()
	}
	return &Collector{id: id, rec: stats.New(), tracer: trace.New()}
}

// Recorder returns the collector's stats recorder — nil (the valid
// discard-everything sink) on a nil collector.
func (c *Collector) Recorder() *stats.Recorder {
	if c == nil {
		return nil
	}
	return c.rec
}

// Tracer returns the collector's tracer — nil (tracing disabled) on a
// nil collector.
func (c *Collector) Tracer() *trace.Tracer {
	if c == nil {
		return nil
	}
	return c.tracer
}

// SetProfile stores the run's execution profile.
func (c *Collector) SetProfile(p core.RunProfile) {
	if c == nil {
		return
	}
	c.profile = &p
}

// SetGuest stores the symbolized guest profile and its folded stacks.
func (c *Collector) SetGuest(p *guestprof.Profile, folded string) {
	if c == nil {
		return
	}
	c.guest = p
	c.folded = folded
}

// SetAudit stores the byte-provenance size audit.
func (c *Collector) SetAudit(a *sizeaudit.Audit) {
	if c == nil {
		return
	}
	c.audit = a
}

// Bundle assembles the collected artifacts into their canonical bundle
// form: the recorder is snapshotted, the tracer rendered to Chrome
// trace-event bytes, the audit's CSV derived, and empty substructures
// normalized to their decoded (nil/absent) form so a bundle and its
// reopened copy are reflect.DeepEqual.
func (c *Collector) Bundle() (*Bundle, error) {
	if c == nil {
		return nil, nil
	}
	b := &Bundle{Identity: c.id, Profile: c.profile, Guest: c.guest, GuestFolded: c.folded, Audit: c.audit}
	if snap := c.rec.Snapshot(); len(snap.Counters) > 0 || len(snap.Phases) > 0 || len(snap.Hists) > 0 {
		canonSnapshot(&snap)
		b.Stats = &snap
	}
	if c.tracer.Len() > 0 {
		var sb strings.Builder
		if err := c.tracer.WriteChrome(&sb); err != nil {
			return nil, err
		}
		b.Trace = []byte(sb.String())
	}
	if c.audit != nil {
		var sb strings.Builder
		if err := c.audit.WriteCSV(&sb); err != nil {
			return nil, err
		}
		b.AuditCSV = sb.String()
	}
	return b, nil
}

// Write assembles and persists the bundle. A nil collector writes
// nothing and reports success, mirroring the nil-Recorder contract.
func (c *Collector) Write(dir string) error {
	if c == nil {
		return nil
	}
	b, err := c.Bundle()
	if err != nil {
		return err
	}
	return Write(dir, b)
}

// canonSnapshot drops empty maps, matching what decoding the snapshot's
// JSON produces (omitempty elides them).
func canonSnapshot(s *stats.Snapshot) {
	if len(s.Counters) == 0 {
		s.Counters = nil
	}
	if len(s.Phases) == 0 {
		s.Phases = nil
	}
	if len(s.Hists) == 0 {
		s.Hists = nil
	}
}
