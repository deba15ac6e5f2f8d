package obs

import (
	"sort"

	"repro/internal/benchfmt"
	"repro/internal/sizeaudit"
)

// Diff is the pairwise comparison of two bundles: every axis the paper's
// claims are stated over — size (total bytes, per-provenance-class bits),
// cycles (per-function guest deltas), and behavior (stats counters, among
// them the step count and fast-path bails, and histogram quantiles).
// Sections absent from either bundle simply yield empty slices.
type Diff struct {
	Old, New Identity

	// Metrics compares the two stats snapshots metric by metric —
	// counters, phase milliseconds (".ms") and histogram quantiles
	// (".p50"/".p99") shared by both sides — via benchfmt.Compare, so the
	// same delta machinery that gates BENCH trajectories drives bundle
	// diffs. MetricsOldOnly / MetricsNewOnly list names present on only
	// one side: schema drift a diff must surface, not hide.
	Metrics        []benchfmt.MetricDelta
	MetricsOldOnly []string
	MetricsNewOnly []string

	// Funcs is the per-function guest-profile delta (cycles and fetched
	// program-memory bytes), ordered by |Δcycles| descending.
	Funcs []FuncDelta

	// Classes is the per-provenance-class compressed-bit delta from the
	// size audits; Size their total-byte summary (nil without both).
	Classes []ClassDelta
	Size    *SizeDelta
}

// FuncDelta is one function's movement between two guest profiles.
type FuncDelta struct {
	Name                         string
	OldCycles, NewCycles         int64
	OldFetchBytes, NewFetchBytes int64
}

// ClassDelta is one provenance class's compressed-bit movement between
// two size audits.
type ClassDelta struct {
	Class            string
	OldBits, NewBits int64
}

// SizeDelta summarizes the two audits' totals.
type SizeDelta struct {
	OldBytes, NewBytes int64
	OldRatio, NewRatio float64
}

// metricsName is the pseudo-benchmark name bundle snapshots compare
// under; benchfmt matches benchmarks by name, and a diff always compares
// exactly one run against one run.
const metricsName = "run"

// metricsReport flattens a bundle's stats snapshot into a one-benchmark
// benchfmt report: counters verbatim, phases as "<name>.ms", histograms
// as "<name>.p50"/"<name>.p99".
func metricsReport(b *Bundle) *benchfmt.Report {
	m := map[string]float64{}
	if b.Stats != nil {
		for k, v := range b.Stats.Counters {
			m[k] = float64(v)
		}
		for k, p := range b.Stats.Phases {
			m[k+".ms"] = float64(p.Nanos) / 1e6
		}
		for k, h := range b.Stats.Hists {
			m[k+".p50"] = float64(h.P50)
			m[k+".p99"] = float64(h.P99)
		}
	}
	return &benchfmt.Report{Benchmarks: []benchfmt.Benchmark{{Name: metricsName, Metrics: m}}}
}

// NewDiff compares two bundles section by section.
func NewDiff(old, new *Bundle) *Diff {
	d := &Diff{Old: old.Identity, New: new.Identity}
	d.diffMetrics(old, new)
	d.diffGuest(old, new)
	d.diffAudit(old, new)
	return d
}

func (d *Diff) diffMetrics(old, new *Bundle) {
	or, nr := metricsReport(old), metricsReport(new)
	cmp := benchfmt.Compare(or, nr)
	for _, md := range cmp.Deltas {
		if md.Metric == "ns/op" { // bundles carry no go-test timing; drop the synthetic row
			continue
		}
		d.Metrics = append(d.Metrics, md)
	}
	om, nm := or.Benchmarks[0].Metrics, nr.Benchmarks[0].Metrics
	for k := range om {
		if _, ok := nm[k]; !ok {
			d.MetricsOldOnly = append(d.MetricsOldOnly, k)
		}
	}
	for k := range nm {
		if _, ok := om[k]; !ok {
			d.MetricsNewOnly = append(d.MetricsNewOnly, k)
		}
	}
	sort.Strings(d.MetricsOldOnly)
	sort.Strings(d.MetricsNewOnly)
}

func (d *Diff) diffGuest(old, new *Bundle) {
	if old.Guest == nil || new.Guest == nil {
		return
	}
	type side struct{ cycles, bytes int64 }
	byName := map[string][2]side{}
	names := []string{}
	for _, f := range old.Guest.Funcs {
		s := byName[f.Name]
		s[0] = side{f.Flat.Cycles, f.Flat.FetchBytes}
		byName[f.Name] = s
	}
	for _, f := range new.Guest.Funcs {
		s := byName[f.Name]
		s[1] = side{f.Flat.Cycles, f.Flat.FetchBytes}
		byName[f.Name] = s
	}
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := byName[name]
		d.Funcs = append(d.Funcs, FuncDelta{
			Name:      name,
			OldCycles: s[0].cycles, NewCycles: s[1].cycles,
			OldFetchBytes: s[0].bytes, NewFetchBytes: s[1].bytes,
		})
	}
	sort.SliceStable(d.Funcs, func(i, j int) bool {
		di := abs64(d.Funcs[i].NewCycles - d.Funcs[i].OldCycles)
		dj := abs64(d.Funcs[j].NewCycles - d.Funcs[j].OldCycles)
		if di != dj {
			return di > dj
		}
		return d.Funcs[i].Name < d.Funcs[j].Name
	})
}

func (d *Diff) diffAudit(old, new *Bundle) {
	if old.Audit == nil || new.Audit == nil {
		return
	}
	oc, nc := old.Audit.ClassTotals(), new.Audit.ClassTotals()
	for _, cl := range sizeaudit.Classes() {
		d.Classes = append(d.Classes, ClassDelta{Class: cl.String(), OldBits: oc[cl], NewBits: nc[cl]})
	}
	d.Size = &SizeDelta{
		OldBytes: int64(old.Audit.TotalBytes), NewBytes: int64(new.Audit.TotalBytes),
		OldRatio: old.Audit.Ratio(), NewRatio: new.Audit.Ratio(),
	}
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
