package sizeaudit

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// bytesStr renders a bit count as bytes, exactly: whole byte counts print
// as integers, nibble-granular remainders keep their fractional part
// (multiples of 0.125, so the shortest float representation is exact).
func bytesStr(bits int64) string {
	if bits%8 == 0 {
		return strconv.FormatInt(bits/8, 10)
	}
	return strconv.FormatFloat(float64(bits)/8, 'f', -1, 64)
}

// writeAligned renders rows as right-aligned columns except the last
// (names), two spaces apart.
func writeAligned(w io.Writer, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	width := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, cell := range r {
			if len(cell) > width[i] {
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
			if i == len(r)-1 { // name column: left-aligned, unpadded
				sb.WriteString(cell)
				continue
			}
			sb.WriteString(strings.Repeat(" ", width[i]-len(cell)))
			sb.WriteString(cell)
		}
		if _, err := fmt.Fprintln(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteTable renders the audit as an aligned per-function text table with
// one column per provenance class (values in bytes) plus each row's total
// and share of the image.
func (a *Audit) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "size audit: %s (%s), %d bytes", a.Name, a.Encoding, a.TotalBytes); err != nil {
		return err
	}
	if a.OriginalBytes > 0 {
		if _, err := fmt.Fprintf(w, " of %d original (ratio %.3f)", a.OriginalBytes, a.Ratio()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	header := []string{"bytes", "share"}
	for _, c := range Classes() {
		header = append(header, c.String())
	}
	header = append(header, "function")
	rows := [][]string{header}
	total := int64(a.TotalBytes) * 8
	share := func(bits int64) string {
		if total == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(bits)/float64(total))
	}
	appendRow := func(name string, b ClassBits) {
		row := []string{bytesStr(b.Total()), share(b.Total())}
		for _, c := range Classes() {
			row = append(row, bytesStr(b[c]))
		}
		rows = append(rows, append(row, name))
	}
	for _, f := range a.Funcs {
		appendRow(f.Name, f.Bits)
	}
	appendRow("TOTAL", a.ClassTotals())
	return writeAligned(w, rows)
}

// WriteCSV emits one record per row — bench, encoding, function, per-class
// bit counts and the row total — with a header. Bit counts keep the
// records exact; divide by 8 for bytes.
func (a *Audit) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"name", "encoding", "function"}
	for _, c := range Classes() {
		header = append(header, c.String()+"_bits")
	}
	header = append(header, "total_bits")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, f := range a.Funcs {
		rec := []string{a.Name, a.Encoding, f.Name}
		for _, c := range Classes() {
			rec = append(rec, strconv.FormatInt(f.Bits[c], 10))
		}
		rec = append(rec, strconv.FormatInt(f.Bits.Total(), 10))
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
