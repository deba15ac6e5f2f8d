// Package codec defines the pluggable compression-codec registry: every
// encoding the pipeline supports — the paper's dictionary codeword schemes,
// the CCRP Huffman comparator, the LZW comparator — registers itself here
// under a stable one-byte method id and a canonical name, and every layer
// above (objfile framing, CLI parsing, the bench tables, the command-line
// tools) enumerates or dispatches through the registry instead of
// hard-coding scheme lists. Adding a codec means implementing Codec in its
// home package and calling Register from an init function; no other file
// changes.
//
// The shape follows ClickHouse's ICompressionCodec/CompressionFactory: a
// method byte stored in the serialized frame makes every image
// self-describing, so any tool can open any .ppz without being told its
// encoding.
package codec

import (
	"io"

	"repro/internal/codeword"
	"repro/internal/dictionary"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/sizeaudit"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Method is the stable one-byte codec id recorded in serialized image
// frames. Values are wire format: never renumber them. The dictionary
// schemes must keep their codeword.Scheme numeric values so version-1
// image files (whose header stored the raw scheme byte) keep their
// meaning.
type Method uint8

// Registered method bytes.
const (
	Baseline Method = 0 // 2-byte codewords (§4.1)
	OneByte  Method = 1 // 1-byte codewords (§4.1.2)
	Nibble   Method = 2 // 4/8/12/16-bit codewords (§4.1.3)
	Liao     Method = 3 // whole-instruction call dictionary (§2.4)
	CCRP     Method = 4 // per-cache-line Huffman with LAT [Wolfe92]
	LZW      Method = 5 // Unix compress(1) comparator (Fig. 11)
)

// Options carries the encoding parameters and observability sinks a codec
// may honor. Every field is optional; codecs ignore what does not apply to
// them (the dictionary-shape knobs mean nothing to CCRP or LZW).
type Options struct {
	// MaxEntries bounds a dictionary codec's entry budget; 0 means the
	// scheme maximum.
	MaxEntries int

	// MaxEntryLen bounds instructions per dictionary entry; 0 means the
	// paper's baseline of 4.
	MaxEntryLen int

	// Strategy selects the dictionary-building policy (ablation hook).
	Strategy dictionary.Strategy

	// DynProfile, when non-nil, supplies per-original-word execution
	// counts for profile-guided codeword ranking.
	DynProfile []int64

	// Stats, when non-nil, receives the codec's pipeline counters and
	// timers. Nil-safe pass-through; never affects the produced image.
	Stats *stats.Recorder

	// Trace, when non-nil, is the parent span for the codec's pipeline
	// phases. Nil-safe pass-through; never affects the produced image.
	Trace *trace.Span
}

// Image is a compressed program produced by a Codec. Concrete types carry
// the codec-specific payload (dictionary entries and marks, Huffman lines
// and LAT, an LZW blob); the interface is what the generic layers need for
// framing and size accounting.
type Image interface {
	// Method identifies the codec that produced (and can reopen) the image.
	Method() Method

	// CompressedBytes is the total compressed size including every
	// overhead the paper charges (dictionary, tables, padding).
	CompressedBytes() int

	// Ratio is Eq. 1: compressed size / original size.
	Ratio() float64
}

// Executable is implemented by images that can run on the simulator.
// Opening a .ppz and asserting this interface is how ccrun executes any
// encoding without knowing it in advance.
type Executable interface {
	Image

	// NewMachine builds a CPU executing the image with the codec's default
	// fetch-path configuration.
	NewMachine() (*machine.CPU, error)
}

// Auditable is implemented by images that can reconstruct their
// byte-provenance audit from serialized sideband metadata alone (no
// recompression) — the dictionary images' marks-based path.
type Auditable interface {
	Image
	SizeAudit() (*sizeaudit.Audit, error)
}

// Schemed is implemented by dictionary codecs (and their images) to expose
// the underlying codeword scheme. Layers that are specifically about the
// paper's dictionary method — scheme sweeps, the shared-ROM fleet tools,
// the memoizing bench corpus — use this to keep their scheme-keyed paths
// without enumerating codecs by name.
type Schemed interface {
	Scheme() codeword.Scheme
}

// Codec is one registered encoding. Implementations are stateless values;
// all per-run state lives in the returned images.
type Codec interface {
	// Method is the stable frame byte.
	Method() Method

	// Name is the canonical lower-case name used by CLIs, tables and audit
	// rows. ByName also accepts registered aliases.
	Name() string

	// Compress encodes a program. The program is not mutated.
	Compress(p *program.Program, opt Options) (Image, error)

	// Open deserializes an image payload previously written by WriteImage.
	// The stream excludes the container magic and frame header — the
	// objfile layer dispatches here after reading the method byte.
	Open(r io.Reader) (Image, error)

	// WriteImage serializes an image payload. The image must have been
	// produced by this codec.
	WriteImage(w io.Writer, img Image) error

	// Verify checks an image against the original program (structural
	// round-trip; the strongest check the codec supports).
	Verify(p *program.Program, img Image) error

	// Audit compresses p and returns its finished, conservation-checked
	// byte-provenance audit. The dictionary codecs rebuild it from the
	// image's marks; the others compress with a live emitter attached.
	Audit(p *program.Program, opt Options) (*sizeaudit.Audit, error)

	// MaxCompressedBytes is a conservative upper bound on the compressed
	// size of a program of originalBytes — the buffer-sizing hint for
	// streaming consumers (nothing in this repository needs it to be
	// tight).
	MaxCompressedBytes(originalBytes int) int
}
