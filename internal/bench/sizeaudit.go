package bench

import (
	"fmt"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/sizeaudit"
	"repro/internal/trace"
)

func init() {
	Experiments = append(Experiments,
		Runner{ID: "sizeaudit", Title: "Ext. N: byte provenance of the compressed image, per encoding", Run: ExtSizeAudit},
	)
}

// AuditEncodings lists the encodings the size-audit experiment covers —
// every registered codec, in method-byte (table) order: the dictionary
// codeword schemes first, then the comparator compressors. A codec
// registering itself joins the audit sweep with no change here.
var AuditEncodings = codec.Names()

// AuditFor produces the byte-provenance audit of one benchmark under one
// encoding (a registered codec name). Dictionary schemes reconstruct the
// audit from the memoized image's marks; other codecs attach a live
// emitter to their encoders. Every returned audit has passed its
// conservation check — the experiment is self-verifying.
func AuditFor(c *Corpus, name, enc string) (*sizeaudit.Audit, error) {
	cd, err := codec.ByName(enc)
	if err != nil {
		return nil, fmt.Errorf("bench: unknown audit encoding %q", enc)
	}
	if sc, ok := cd.(codec.Schemed); ok {
		img, err := c.Image(name, core.Options{Scheme: sc.Scheme(), MaxEntryLen: 4})
		if err != nil {
			return nil, err
		}
		return img.SizeAudit()
	}
	p, err := c.Program(name)
	if err != nil {
		return nil, err
	}
	sp := comparatorSpan(c, enc, name)
	defer sp.End()
	return cd.Audit(p, codec.Options{Stats: c.Recorder()})
}

// comparatorSpan opens the span of one comparator-codec run (LZW, CCRP) on
// benchmark name, so a trace attributes its time to the codec layer rather
// than to the experiment around it.
func comparatorSpan(c *Corpus, enc, name string) *trace.Span {
	return c.Span().Child("codec."+enc+".comparator").Set("bench", name)
}

// comparatorImage compresses benchmark name's program p with the
// registered comparator codec enc (LZW, CCRP) inside its comparatorSpan.
func comparatorImage(c *Corpus, enc, name string, p *program.Program) (codec.Image, error) {
	cd, err := codec.ByName(enc)
	if err != nil {
		return nil, err
	}
	sp := comparatorSpan(c, enc, name)
	defer sp.End()
	return cd.Compress(p, codec.Options{Stats: c.Recorder()})
}

// ExtSizeAudit attributes every compressed byte of every benchmark under
// every encoding: one row per (benchmark, encoding) pair, one column per
// provenance class holding that class's share of the image. Because each
// audit passes the conservation invariant before rendering, the class
// shares of a row always account for exactly 100% of the image.
func ExtSizeAudit(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "sizeaudit",
		Title:   "Byte provenance of the compressed image, per encoding",
		Columns: []string{"bench", "encoding", "bytes", "ratio"},
		Note: "class shares of the compressed image (conservation-checked: rows sum " +
			"to 100%); the gap between the ~30-50% savings and the codeword share " +
			"is exactly the raw/stub/padding/dictionary/table overhead shown here",
	}
	for _, cl := range sizeaudit.Classes() {
		t.Columns = append(t.Columns, cl.String())
	}
	names := c.Names()
	encs := AuditEncodings
	// One work item per (benchmark, encoding) cell: the audits are
	// independent, so they saturate the pool instead of serializing per row.
	rows := make([][]string, len(names)*len(encs))
	err := c.each(len(rows), func(k int) error {
		name, enc := names[k/len(encs)], encs[k%len(encs)]
		a, err := AuditFor(c, name, enc)
		if err != nil {
			return err
		}
		totalBits := float64(a.TotalBytes) * 8
		cls := a.ClassTotals()
		row := []string{name, enc, fmt.Sprint(a.TotalBytes), ratioStr(a.Ratio())}
		for _, cl := range sizeaudit.Classes() {
			row = append(row, pct(float64(cls[cl])/totalBits))
		}
		rows[k] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}
