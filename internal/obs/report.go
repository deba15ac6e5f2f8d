package obs

import (
	"fmt"
	"html/template"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/sizeaudit"
)

// Report is the renderable form of a bundle or a diff: a title, an
// identity key/value block and a list of tables. One view-model feeds
// both output modes, so the HTML page and the text dump can never
// disagree about content.
type Report struct {
	Title  string
	Sub    string
	KV     [][2]string
	Tables []ReportTable
}

// ReportTable is one section of a report. Num marks the right-aligned
// (numeric) columns by index.
type ReportTable struct {
	Title string
	Note  string
	Head  []string
	Num   []bool
	Rows  [][]string

	// Figure is an optional pre-rendered HTML fragment (an inline SVG
	// chart, e.g. perfhist's trend sparklines) shown between the note and
	// the table in HTML output; text output carries the same content in
	// the table rows, so it omits the figure rather than approximating it.
	Figure template.HTML
}

// reportHTML is the single embedded template: a dependency-free,
// self-contained page (inline CSS, no scripts, no external fetches).
var reportHTML = template.Must(template.New("report").Parse(`<!doctype html>
<html><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>
body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;max-width:72rem;padding:0 1rem;color:#1a1a1a}
h1{font-size:1.4rem}h2{font-size:1.05rem;margin:2rem 0 .25rem}
table{border-collapse:collapse;margin:.5rem 0}
th,td{padding:.15rem .6rem;border-bottom:1px solid #ddd;text-align:left;vertical-align:baseline}
th{border-bottom:1px solid #888}
td.num,th.num{text-align:right;font-variant-numeric:tabular-nums}
.note{color:#666;font-size:.85rem;max-width:60rem;margin:.25rem 0}
.kv td:first-child{color:#666}
</style></head><body>
<h1>{{.Title}}</h1>
{{if .Sub}}<p class="note">{{.Sub}}</p>{{end}}
<table class="kv">{{range .KV}}<tr><td>{{index . 0}}</td><td>{{index . 1}}</td></tr>
{{end}}</table>
{{range .Tables}}<h2>{{.Title}}</h2>
{{if .Note}}<p class="note">{{.Note}}</p>{{end}}{{with .Figure}}<div class="fig">{{.}}</div>{{end}}
{{$t := .}}<table>
<tr>{{range $i, $h := .Head}}<th{{if index $t.Num $i}} class="num"{{end}}>{{$h}}</th>{{end}}</tr>
{{range .Rows}}<tr>{{range $i, $c := .}}<td{{if index $t.Num $i}} class="num"{{end}}>{{$c}}</td>{{end}}</tr>
{{end}}</table>
{{end}}</body></html>
`))

// WriteHTML renders the report as a standalone HTML page.
func (r *Report) WriteHTML(w io.Writer) error { return reportHTML.Execute(w, r) }

// WriteText renders the report as aligned text tables — the same content
// as the HTML page, for terminals and golden tests.
func (r *Report) WriteText(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString(r.Title + "\n")
	if r.Sub != "" {
		sb.WriteString(r.Sub + "\n")
	}
	for _, kv := range r.KV {
		fmt.Fprintf(&sb, "%s: %s\n", kv[0], kv[1])
	}
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if _, err := fmt.Fprintf(w, "\n== %s ==\n", t.Title); err != nil {
			return err
		}
		if t.Note != "" {
			if _, err := fmt.Fprintf(w, "(%s)\n", t.Note); err != nil {
				return err
			}
		}
		if err := writeAlignedRows(w, t); err != nil {
			return err
		}
	}
	return nil
}

// writeAlignedRows prints head + rows with Num columns right-aligned.
func writeAlignedRows(w io.Writer, t ReportTable) error {
	rows := append([][]string{t.Head}, t.Rows...)
	width := make([]int, len(t.Head))
	for _, r := range rows {
		for i, cell := range r {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	for _, r := range rows {
		sb.Reset()
		for i, cell := range r {
			if i > 0 {
				sb.WriteString("  ")
			}
			pad := 0
			if i < len(width) {
				pad = width[i] - len(cell)
			}
			num := i < len(t.Num) && t.Num[i]
			if num {
				sb.WriteString(strings.Repeat(" ", pad))
				sb.WriteString(cell)
			} else if i == len(r)-1 { // trailing name column: unpadded
				sb.WriteString(cell)
			} else {
				sb.WriteString(cell)
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " ")); err != nil {
			return err
		}
	}
	return nil
}

// ---- shared formatting ----

func fmtI(v int64) string { return strconv.FormatInt(v, 10) }

// fmtF prints a float compactly: integral values as integers, the rest
// with three decimals.
func fmtF(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// fmtBitsAsBytes renders a bit count as exact (possibly fractional) bytes.
func fmtBitsAsBytes(bits int64) string {
	if bits%8 == 0 {
		return strconv.FormatInt(bits/8, 10)
	}
	return strconv.FormatFloat(float64(bits)/8, 'f', -1, 64)
}

func fmtPct(num, den int64) string {
	if den == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(num)/float64(den))
}

// fmtDelta renders new-old with an explicit sign.
func fmtDelta(old, new int64) string {
	d := new - old
	if d > 0 {
		return "+" + strconv.FormatInt(d, 10)
	}
	return strconv.FormatInt(d, 10)
}

// ---- bundle report ----

// maximum rows the report shows for the long tables; the full data stays
// in the bundle's JSON sections.
const (
	maxHotEntries = 10
	maxGuestRows  = 20
	maxAuditRows  = 15
	maxFuncDeltas = 20
)

// BundleReport builds the renderable report of one bundle.
func BundleReport(b *Bundle) *Report {
	r := &Report{Title: "run bundle: " + b.Identity.String()}
	r.KV = identityKV(b.Identity)
	var present []string
	for _, s := range []struct {
		name string
		ok   bool
	}{
		{secStats, b.Stats != nil}, {secProfile, b.Profile != nil},
		{secGuest, b.Guest != nil}, {secGuestFolded, b.GuestFolded != ""},
		{secAudit, b.Audit != nil}, {secAuditCSV, b.AuditCSV != ""},
		{secTrace, len(b.Trace) > 0},
	} {
		if s.ok {
			present = append(present, s.name)
		}
	}
	r.KV = append(r.KV, [2]string{"sections", strings.Join(present, ", ")})
	if len(b.Trace) > 0 {
		r.KV = append(r.KV, [2]string{"trace", fmtI(int64(len(b.Trace))) + " bytes (Chrome trace-event)"})
	}

	if b.Stats != nil {
		if _, ok := b.Stats.Counters["machine.steps"]; ok {
			r.Tables = append(r.Tables, executionTable(b.Stats.Counters))
		}
	}
	if b.Profile != nil && len(b.Profile.HotEntries) > 0 {
		r.Tables = append(r.Tables, hotEntriesTable(b))
	}
	if b.Stats != nil {
		r.Tables = append(r.Tables, statsTables(b)...)
	}
	if b.Guest != nil {
		r.Tables = append(r.Tables, guestTable(b))
	}
	if b.Audit != nil {
		r.Tables = append(r.Tables, auditClassTable(b), auditFuncTable(b))
	}
	return r
}

func identityKV(id Identity) [][2]string {
	kv := [][2]string{{"bench", id.Bench}}
	if id.Codec != "" {
		kv = append(kv, [2]string{"codec", fmt.Sprintf("%s (method 0x%02x)", id.Codec, id.Method)})
	}
	if id.OptionsHash != "" {
		kv = append(kv, [2]string{"options", id.OptionsHash})
	}
	if id.GoVersion != "" {
		kv = append(kv, [2]string{"go", id.GoVersion})
	}
	if id.Timestamp != "" {
		kv = append(kv, [2]string{"time", id.Timestamp})
	}
	return kv
}

// bailPrefix names the fast-path bail counters, one per machine.BailReason.
const bailPrefix = "machine.fastpath.bail."

// executionTable summarizes a run's machine counters: the simulator's
// activity, the fast path's coverage and non-zero bails, and the I-cache
// totals when a cache was simulated.
func executionTable(c map[string]int64) ReportTable {
	t := ReportTable{
		Title: "Execution",
		Head:  []string{"metric", "value"},
		Num:   []bool{false, true},
	}
	add := func(k, v string) { t.Rows = append(t.Rows, []string{k, v}) }
	steps := c["machine.steps"]
	add("steps", fmtI(steps))
	add("expanded", fmtI(c["machine.expanded"]))
	add("mem fetches", fmtI(c["machine.mem_fetches"]))
	add("fetched bytes", fmtI(c["machine.fetched_bytes"]))
	add("fastpath steps", fmtI(c["machine.fastpath.steps"]))
	add("fastpath slow steps", fmtI(c["machine.fastpath.slow_steps"]))
	add("fastpath coverage", fmt.Sprintf("%.4f", ratio(float64(c["machine.fastpath.steps"]), float64(steps))))
	for _, k := range sortedKeys(c) {
		if reason, ok := strings.CutPrefix(k, bailPrefix); ok && c[k] != 0 {
			add("bail "+reason, fmtI(c[k]))
		}
	}
	if accesses, ok := c["cache.accesses"]; ok {
		add("icache accesses", fmtI(accesses))
		add("icache misses", fmtI(c["cache.misses"]))
		add("icache miss rate", fmt.Sprintf("%.4f", ratio(float64(c["cache.misses"]), float64(accesses))))
	}
	return t
}

// ratio is num/den, or 0 when den is not positive.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

func hotEntriesTable(b *Bundle) ReportTable {
	t := ReportTable{
		Title: "Hot dictionary entries",
		Note:  fmt.Sprintf("top %d by expansions begun; the full heat map is profile.json", maxHotEntries),
		Head:  []string{"rank", "count", "len", "uses", "instructions"},
		Num:   []bool{true, true, true, true, false},
	}
	for i, e := range b.Profile.HotEntries {
		if i == maxHotEntries {
			break
		}
		t.Rows = append(t.Rows, []string{
			fmtI(int64(e.Rank)), fmtI(e.Count), fmtI(int64(e.Len)), fmtI(int64(e.Uses)),
			strings.Join(e.Insns, "; "),
		})
	}
	return t
}

func statsTables(b *Bundle) []ReportTable {
	var out []ReportTable
	s := b.Stats
	if len(s.Counters) > 0 {
		t := ReportTable{Title: "Counters", Head: []string{"counter", "value"}, Num: []bool{false, true}}
		for _, k := range sortedKeys(s.Counters) {
			t.Rows = append(t.Rows, []string{k, fmtI(s.Counters[k])})
		}
		out = append(out, t)
	}
	if len(s.Phases) > 0 {
		t := ReportTable{Title: "Phases", Head: []string{"phase", "count", "total ms"}, Num: []bool{false, true, true}}
		keys := make([]string, 0, len(s.Phases))
		for k := range s.Phases {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := s.Phases[k]
			t.Rows = append(t.Rows, []string{k, fmtI(p.Count), fmt.Sprintf("%.3f", float64(p.Nanos)/1e6)})
		}
		out = append(out, t)
	}
	if len(s.Hists) > 0 {
		t := ReportTable{
			Title: "Histograms",
			Head:  []string{"histogram", "count", "min", "p50", "p90", "p99", "max"},
			Num:   []bool{false, true, true, true, true, true, true},
		}
		keys := make([]string, 0, len(s.Hists))
		for k := range s.Hists {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := s.Hists[k]
			t.Rows = append(t.Rows, []string{
				k, fmtI(h.Count), fmtI(h.Min), fmtI(h.P50), fmtI(h.P90), fmtI(h.P99), fmtI(h.Max),
			})
		}
		out = append(out, t)
	}
	return out
}

func guestTable(b *Bundle) ReportTable {
	g := b.Guest
	t := ReportTable{
		Title: "Guest functions",
		Note:  fmt.Sprintf("top %d by flat cycles; the full profile is guest.json", maxGuestRows),
		Head:  []string{"flat", "flat%", "cum", "fetch bytes", "expansions", "dict insns", "function"},
		Num:   []bool{true, true, true, true, true, true, false},
	}
	for i, f := range g.Funcs {
		if i == maxGuestRows {
			break
		}
		t.Rows = append(t.Rows, []string{
			fmtI(f.Flat.Cycles), fmtPct(f.Flat.Cycles, g.Total.Cycles), fmtI(f.Cum.Cycles),
			fmtI(f.Flat.FetchBytes), fmtI(f.Flat.Expansions), fmtI(f.Flat.Expanded), f.Name,
		})
	}
	t.Rows = append(t.Rows, []string{
		fmtI(g.Total.Cycles), "100.0%", fmtI(g.Total.Cycles),
		fmtI(g.Total.FetchBytes), fmtI(g.Total.Expansions), fmtI(g.Total.Expanded), "TOTAL",
	})
	return t
}

func auditClassTable(b *Bundle) ReportTable {
	a := b.Audit
	title := fmt.Sprintf("Size audit: %d bytes", a.TotalBytes)
	if a.OriginalBytes > 0 {
		title += fmt.Sprintf(" of %d original (ratio %.3f)", a.OriginalBytes, a.Ratio())
	}
	t := ReportTable{
		Title: title,
		Head:  []string{"class", "bytes", "share"},
		Num:   []bool{false, true, true},
	}
	totals := a.ClassTotals()
	totalBits := int64(a.TotalBytes) * 8
	for _, cl := range sizeaudit.Classes() {
		if totals[cl] == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			cl.String(), fmtBitsAsBytes(totals[cl]), fmtPct(totals[cl], totalBits),
		})
	}
	return t
}

func auditFuncTable(b *Bundle) ReportTable {
	a := b.Audit
	t := ReportTable{
		Title: "Size audit: largest functions",
		Note:  fmt.Sprintf("top %d by compressed bits; the full attribution is audit.json / audit.csv", maxAuditRows),
		Head:  []string{"bytes", "share", "function"},
		Num:   []bool{true, true, false},
	}
	funcs := append([]sizeaudit.FuncSize(nil), a.Funcs...)
	sort.SliceStable(funcs, func(i, j int) bool {
		if ti, tj := funcs[i].Bits.Total(), funcs[j].Bits.Total(); ti != tj {
			return ti > tj
		}
		return funcs[i].Name < funcs[j].Name
	})
	totalBits := int64(a.TotalBytes) * 8
	for i, f := range funcs {
		if i == maxAuditRows {
			break
		}
		t.Rows = append(t.Rows, []string{fmtBitsAsBytes(f.Bits.Total()), fmtPct(f.Bits.Total(), totalBits), f.Name})
	}
	return t
}

// ---- diff report ----

// DiffReport builds the renderable report of a pairwise bundle diff.
func DiffReport(d *Diff) *Report {
	r := &Report{Title: fmt.Sprintf("bundle diff: %s -> %s", d.Old, d.New)}
	r.KV = [][2]string{
		{"old", diffSideKV(d.Old)},
		{"new", diffSideKV(d.New)},
	}
	if d.Size != nil {
		r.KV = append(r.KV, [2]string{"compressed size",
			fmt.Sprintf("%d -> %d bytes (%s, ratio %.3f -> %.3f)",
				d.Size.OldBytes, d.Size.NewBytes, fmtDelta(d.Size.OldBytes, d.Size.NewBytes),
				d.Size.OldRatio, d.Size.NewRatio)})
	}
	metric := map[string]benchfmt.MetricDelta{}
	var bails [][]string
	for _, md := range d.Metrics {
		metric[md.Metric] = md
		if reason, ok := strings.CutPrefix(md.Metric, bailPrefix); ok && (md.Old != 0 || md.New != 0) {
			bails = append(bails, []string{reason, fmtF(md.Old), fmtF(md.New)})
		}
	}
	if steps, ok := metric["machine.steps"]; ok {
		fast := metric["machine.fastpath.steps"]
		r.KV = append(r.KV, [2]string{"steps",
			fmt.Sprintf("%d -> %d (%s)", int64(steps.Old), int64(steps.New), fmtDelta(int64(steps.Old), int64(steps.New)))})
		r.KV = append(r.KV, [2]string{"fastpath coverage",
			fmt.Sprintf("%.4f -> %.4f", ratio(fast.Old, steps.Old), ratio(fast.New, steps.New))})
	}

	if len(d.Classes) > 0 {
		t := ReportTable{
			Title: "Provenance classes",
			Note:  "compressed bits per class, from the size audits (shown as exact bytes)",
			Head:  []string{"class", "old", "new", "delta"},
			Num:   []bool{false, true, true, true},
		}
		for _, c := range d.Classes {
			if c.OldBits == 0 && c.NewBits == 0 {
				continue
			}
			t.Rows = append(t.Rows, []string{
				c.Class, fmtBitsAsBytes(c.OldBits), fmtBitsAsBytes(c.NewBits),
				fmtBitsDelta(c.OldBits, c.NewBits),
			})
		}
		r.Tables = append(r.Tables, t)
	}
	if len(d.Funcs) > 0 {
		t := ReportTable{
			Title: "Guest functions",
			Note:  fmt.Sprintf("per-function flat cycles and fetched program-memory bytes; top %d by |delta cycles|", maxFuncDeltas),
			Head:  []string{"old cycles", "new cycles", "delta", "old bytes", "new bytes", "function"},
			Num:   []bool{true, true, true, true, true, false},
		}
		for i, f := range d.Funcs {
			if i == maxFuncDeltas {
				t.Note += fmt.Sprintf(" (%d more omitted)", len(d.Funcs)-maxFuncDeltas)
				break
			}
			t.Rows = append(t.Rows, []string{
				fmtI(f.OldCycles), fmtI(f.NewCycles), fmtDelta(f.OldCycles, f.NewCycles),
				fmtI(f.OldFetchBytes), fmtI(f.NewFetchBytes), f.Name,
			})
		}
		r.Tables = append(r.Tables, t)
	}
	if len(bails) > 0 {
		r.Tables = append(r.Tables, ReportTable{
			Title: "Fast-path bails",
			Head:  []string{"reason", "old", "new"},
			Num:   []bool{false, true, true},
			Rows:  bails,
		})
	}
	if len(d.Metrics) > 0 {
		t := ReportTable{
			Title: "Metrics",
			Note:  "stats counters, phase milliseconds (.ms) and histogram quantiles (.p50/.p99) shared by both bundles",
			Head:  []string{"metric", "old", "new", "delta%"},
			Num:   []bool{false, true, true, true},
		}
		for _, md := range d.Metrics {
			t.Rows = append(t.Rows, []string{md.Metric, fmtF(md.Old), fmtF(md.New), fmt.Sprintf("%+.1f%%", md.Pct())})
		}
		if len(d.MetricsOldOnly) > 0 {
			t.Note += "; only in old: " + strings.Join(d.MetricsOldOnly, ", ")
		}
		if len(d.MetricsNewOnly) > 0 {
			t.Note += "; only in new: " + strings.Join(d.MetricsNewOnly, ", ")
		}
		r.Tables = append(r.Tables, t)
	}
	return r
}

func diffSideKV(id Identity) string {
	s := id.String()
	if id.OptionsHash != "" {
		s += " options " + id.OptionsHash
	}
	if id.Timestamp != "" {
		s += " @ " + id.Timestamp
	}
	return s
}

// fmtBitsDelta renders new-old bits as signed exact bytes.
func fmtBitsDelta(old, new int64) string {
	d := new - old
	s := fmtBitsAsBytes(d)
	if d > 0 {
		s = "+" + s
	}
	return s
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
