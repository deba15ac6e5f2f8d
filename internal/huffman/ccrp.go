package huffman

import (
	"repro/internal/sizeaudit"
	"repro/internal/stats"
)

// CCRP models the Compressed Code RISC Processor [Wolfe92][Wolfe94]: a
// single Huffman code trained on the whole program's instruction bytes
// compresses each cache line independently; compressed lines are padded to
// byte boundaries (the cache refill engine needs byte-addressable line
// starts); and a Line Address Table maps each uncompressed line address to
// its compressed location. The paper's §2.3 criticism — byte-granularity
// coding plus LAT overhead — falls straight out of this model.
type CCRP struct {
	LineSize int // uncompressed bytes per cache line (Wolfe used 32)

	// LATBytesPerLine models the compact LAT encoding: Wolfe's scheme
	// stores one full address per group of 8 lines plus short offsets,
	// roughly 3 bytes per line.
	LATBytesPerLine float64

	// Stats, when non-nil, receives the overhead components every
	// compression records (ccrp.lines, ccrp.raw_lines, ccrp.lat_bytes,
	// ccrp.code_table_bytes) — the same recorder convention the dictionary
	// builder uses, nil-safe and free when absent.
	Stats *stats.Recorder

	// Audit, when non-nil, receives per-byte provenance as lines are
	// encoded: Huffman-coded bytes as Codeword bits (the symbol's exact
	// code length), raw-fallback lines as Raw, per-line byte round-up as
	// Padding, and the LAT and code-length table as Table globals.
	Audit *sizeaudit.Emitter
}

// DefaultCCRP is the configuration used for the Ext. A comparison.
func DefaultCCRP() CCRP { return CCRP{LineSize: 32, LATBytesPerLine: 3} }
