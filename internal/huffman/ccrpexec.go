package huffman

import (
	"encoding/binary"

	"repro/internal/program"
	"repro/internal/sizeaudit"
	"repro/internal/stats"
)

// CCRPImage is an executable compressed program in the CCRP style
// [Wolfe92]: the text is Huffman-compressed per cache line; instruction
// addresses are unchanged (the icache holds decompressed lines), and a
// Line Address Table maps line numbers to compressed blobs. Unlike the
// dictionary method, no branch patching is needed — the cost is moved to
// the refill path: the machine runs the decoded Text, and an I-cache
// simulation prices each miss with RefillBytes.
type CCRPImage struct {
	Name     string
	LineSize int
	TextBase uint32
	NumWords int
	Entry    uint32

	Code  *Code
	Lines [][]byte // compressed or raw payload per line
	Raw   []bool   // true when the line is stored uncompressed

	Data          []byte
	DataBase      uint32
	OriginalBytes int
	LATBytesPer   float64
}

// BuildCCRPImage compresses a program's text per LineSize line. rec, when
// non-nil, receives the overhead components every compression records
// (ccrp.lines, ccrp.raw_lines, ccrp.lat_bytes, ccrp.code_table_bytes). em,
// when non-nil, receives per-byte provenance as lines are encoded:
// Huffman-coded bytes as Codeword bits (the symbol's exact code length),
// raw-fallback lines as Raw, per-line byte round-up as Padding, and the LAT
// and code-length table as Table globals. Both are nil-safe and never
// affect the image.
func BuildCCRPImage(p *program.Program, rec *stats.Recorder, em *sizeaudit.Emitter) (*CCRPImage, error) {
	text := p.TextBytes()
	var freq [256]int64
	for _, b := range text {
		freq[b]++
	}
	code, err := Build(&freq)
	if err != nil {
		return nil, err
	}
	img := &CCRPImage{
		Name:          p.Name,
		LineSize:      LineSize,
		TextBase:      p.TextBase,
		NumWords:      len(p.Text),
		Entry:         p.EntryAddr(),
		Code:          code,
		Data:          append([]byte(nil), p.Data...),
		DataBase:      p.DataBase,
		OriginalBytes: p.SizeBytes(),
		LATBytesPer:   LATBytesPerLine,
	}
	rawLines := 0
	for off := 0; off < len(text); off += LineSize {
		end := off + LineSize
		if end > len(text) {
			end = len(text)
		}
		line := text[off:end]
		enc := code.Encode(line)
		if len(enc) >= len(line) {
			img.Lines = append(img.Lines, append([]byte(nil), line...))
			img.Raw = append(img.Raw, true)
			rawLines++
			for i := range line {
				em.At(sizeaudit.Raw, uint32(off+i), 8)
			}
		} else {
			img.Lines = append(img.Lines, enc)
			img.Raw = append(img.Raw, false)
			for i, b := range line {
				em.At(sizeaudit.Codeword, uint32(off+i), int64(code.Lens[b]))
			}
			// The byte round-up at the end of the line belongs to whichever
			// function owns the line start — close enough for a sub-byte
			// remainder, and it keeps the accounting exact.
			em.At(sizeaudit.Padding, uint32(off),
				int64(len(enc))*8-int64(code.EncodedBits(line)))
		}
	}
	latBytes := img.CompressedBytes() - 256
	for _, l := range img.Lines {
		latBytes -= len(l)
	}
	em.Global(sizeaudit.Table, sizeaudit.LATRow, int64(latBytes)*8)
	em.Global(sizeaudit.Table, sizeaudit.CodeTableRow, 256*8)
	// Counters materialize even at zero so snapshots always carry the full
	// component set.
	rec.Add("ccrp.lines", int64(len(img.Lines)))
	rec.Add("ccrp.raw_lines", int64(rawLines))
	rec.Add("ccrp.lat_bytes", int64(latBytes))
	rec.Add("ccrp.code_table_bytes", 256)
	return img, nil
}

// CompressedBytes counts line payloads, the LAT and the code table.
func (img *CCRPImage) CompressedBytes() int {
	n := 256 // code-length table
	for _, l := range img.Lines {
		n += len(l)
	}
	n += int(float64(len(img.Lines)) * img.LATBytesPer)
	return n
}

// Ratio is compressed/original.
func (img *CCRPImage) Ratio() float64 {
	if img.OriginalBytes == 0 {
		return 0
	}
	return float64(img.CompressedBytes()) / float64(img.OriginalBytes)
}

// extent is the number of text bytes line ln holds: LineSize, or less for
// the last line.
func (img *CCRPImage) extent(ln int) int {
	return min(img.LineSize, img.NumWords*4-ln*img.LineSize)
}

// Text decodes every line once and returns the program text it holds, at
// the original addresses from TextBase. A compressed line that does not
// decode to its extent fails with a *LineError.
func (img *CCRPImage) Text() ([]uint32, error) {
	text := make([]uint32, 0, img.NumWords)
	for ln, l := range img.Lines {
		ext := img.extent(ln)
		raw := l
		if !img.Raw[ln] {
			dec, err := img.Code.Decode(l, ext)
			if err != nil {
				return nil, &LineError{Line: ln, Len: len(l), Extent: ext, Err: err}
			}
			raw = dec
		}
		for i := 0; i < ext; i += 4 {
			text = append(text, binary.BigEndian.Uint32(raw[i:]))
		}
	}
	return text, nil
}

// RefillBytes is the memory traffic of an I-cache refill of the line
// holding the text address addr: that line's stored bytes, compressed or
// raw.
func (img *CCRPImage) RefillBytes(addr uint32) int64 {
	return int64(len(img.Lines[int(addr-img.TextBase)/img.LineSize]))
}
