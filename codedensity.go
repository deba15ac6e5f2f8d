// Package codedensity is the public API of the reproduction of Lefurgy,
// Bird, Chen & Mudge, "Improving Code Density Using Compression
// Techniques" (U. Michigan CSE-TR-342-97 / MICRO 1997).
//
// The library compresses PowerPC-subset programs with the paper's
// post-compilation dictionary method: common instruction sequences inside
// basic blocks move into a dictionary and are replaced by short codewords;
// a modified fetch/decode path expands them at execution time. Three
// codeword encodings are provided (the 2-byte baseline, 1-byte codewords
// for small dictionaries, and the nibble-aligned variable-length encoding)
// plus Liao-style call-dictionary codewords, a CCRP/Huffman model and an
// LZW coder as comparators.
//
// Typical use:
//
//	p, _ := codedensity.GenerateBenchmark("ijpeg") // or build your own program
//	img, _ := codedensity.Compress(p, codedensity.Options{Scheme: codedensity.Nibble})
//	fmt.Printf("ratio %.3f\n", img.Ratio())
//	out, status, _ := codedensity.RunCompressed(img, 1e8)
//
// Everything is deterministic: the same inputs always produce the same
// binaries, images and measurements.
package codedensity

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/bench"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/machine"
	"repro/internal/objfile"
	"repro/internal/program"
	"repro/internal/synth"
)

// Scheme selects a codeword encoding.
type Scheme = codeword.Scheme

// The supported schemes.
const (
	// Baseline is the paper's §4.1 scheme: 2-byte codewords (escape byte +
	// index), up to 8192 entries.
	Baseline = codeword.Baseline
	// OneByte is the §4.1.2 small-dictionary scheme: single-byte
	// codewords, up to 32 entries.
	OneByte = codeword.OneByte
	// Nibble is the §4.1.3 variable-length scheme (Fig. 10): 4/8/12/16-bit
	// codewords at 4-bit alignment.
	Nibble = codeword.Nibble
	// Liao is the §2.4 comparator: 32-bit call-dictionary codewords.
	Liao = codeword.Liao
)

// Options configures compression.
type Options = core.Options

// Program is a linked PowerPC-subset module.
type Program = program.Program

// Image is a compressed program.
type Image = core.Image

// Mark is the sideband record of where an original instruction landed in
// the compressed stream; images carry one mark per stream item.
type Mark = core.Mark

// Mark kinds.
const (
	MarkRaw      = core.MarkRaw      // uncompressed non-branch instruction
	MarkCodeword = core.MarkCodeword // dictionary codeword
	MarkBranch   = core.MarkBranch   // relative branch with repatched offset
	MarkStub     = core.MarkStub     // far branch expanded to an indirect stub
)

// Builder constructs programs instruction by instruction; see the program
// package's Func/Label/Branch/JumpTable API.
type Builder = program.Builder

// NewBuilder starts an empty module.
func NewBuilder(name string) *Builder { return program.NewBuilder(name) }

// AssembleSource builds a linked program from textual assembly (one
// instruction per line, .program/.entry/.func directives, local labels,
// symbolic branch targets). See the program package for the grammar.
func AssembleSource(src string) (*Program, error) { return program.AssembleSource(src) }

// Benchmarks lists the SPEC CINT95 stand-in names.
func Benchmarks() []string { return synth.BenchmarkNames() }

// GenerateBenchmark deterministically builds one of the synthetic SPEC
// CINT95 stand-ins ("compress", "gcc", "go", "ijpeg", "li", "m88ksim",
// "perl", "vortex").
func GenerateBenchmark(name string) (*Program, error) { return synth.Generate(name) }

// GenerateBenchmarkScaled builds a stand-in with its size target scaled
// (scale 8 brings gcc near the real statically linked SPEC binary).
func GenerateBenchmarkScaled(name string, scale float64) (*Program, error) {
	return synth.GenerateScaled(name, scale)
}

// Compress applies the paper's dictionary compression. The input program
// is not modified (jump tables are patched in the image's own data).
func Compress(p *Program, opt Options) (*Image, error) {
	return core.Compress(p, opt)
}

// DictEntry is one shared-dictionary entry (a sequence of instruction
// words plus its use count).
type DictEntry = dictionary.Entry

// BuildSharedDictionary builds one dictionary over several programs for
// fleet-wide deployment with CompressFixed.
func BuildSharedDictionary(programs []*Program, opt Options) ([]DictEntry, error) {
	return core.BuildSharedDictionary(programs, opt)
}

// CompressFixed compresses a program against a pre-built (e.g. shared ROM)
// dictionary, preserving entry order so codeword ranks stay meaningful
// across every program using it.
func CompressFixed(p *Program, entries []DictEntry, opt Options) (*Image, error) {
	return core.CompressFixed(p, entries, opt)
}

// Verify structurally checks that an image is a faithful compression of
// the program: codewords expand to the original sequences, branches reach
// the original targets in unit space, jump tables and the entry point are
// repatched consistently.
func Verify(p *Program, img *Image) error { return core.Verify(p, img) }

// Run executes an uncompressed program on the simulator, returning its
// syscall output and exit status.
func Run(p *Program, maxSteps int64) ([]byte, int32, error) {
	cpu, err := machine.NewForProgram(p)
	if err != nil {
		return nil, 0, err
	}
	status, err := cpu.Run(maxSteps)
	if err != nil {
		return nil, 0, err
	}
	return cpu.Output(), status, nil
}

// RunCompressed executes a compressed image through the Figure 3 fetch
// path (codeword expansion in decode).
func RunCompressed(img *Image, maxSteps int64) ([]byte, int32, error) {
	cpu, err := core.NewMachine(img)
	if err != nil {
		return nil, 0, err
	}
	status, err := cpu.Run(maxSteps)
	if err != nil {
		return nil, 0, err
	}
	return cpu.Output(), status, nil
}

// VerifyExecution runs both the program and its image and checks that
// output and exit status are identical — the behavioral half of the
// correctness argument (Verify is the structural half).
func VerifyExecution(p *Program, img *Image, maxSteps int64) error {
	_, _, err := core.RunBoth(p, img, maxSteps)
	return err
}

// WriteProgram/ReadProgram serialize programs (PPX1 format).
func WriteProgram(w io.Writer, p *Program) error { return objfile.WriteProgram(w, p) }

// ReadProgram deserializes a PPX1 program.
func ReadProgram(r io.Reader) (*Program, error) { return objfile.ReadProgram(r) }

// WriteImage serializes a compressed image (PPCZ format).
func WriteImage(w io.Writer, img *Image) error { return objfile.WriteImage(w, img) }

// ReadImage deserializes a PPCZ image.
func ReadImage(r io.Reader) (*Image, error) { return objfile.ReadImage(r) }

// ExperimentIDs lists the reproducible tables and figures.
func ExperimentIDs() []string {
	out := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		out[i] = e.ID
	}
	return out
}

// EngineOptions configures RunExperiments.
type EngineOptions struct {
	// Parallel bounds concurrently executing work (experiment runners and
	// the per-benchmark rows inside them share one worker pool). 0 means
	// runtime.GOMAXPROCS(0); 1 runs fully sequentially. Output is
	// byte-identical at every setting.
	Parallel int
}

// PhaseStat is the accumulated timing of one instrumented phase.
type PhaseStat struct {
	Count int64 `json:"count"` // completed invocations
	Nanos int64 `json:"nanos"` // total duration in nanoseconds
}

// RunStats is the observability report of one experiment (or a whole
// run): named counters (corpus.compressions, dict.heap_pops,
// machine.steps, …) and phase timings (core.analyze/build/encode/patch,
// experiment.wall).
type RunStats struct {
	Counters map[string]int64     `json:"counters,omitempty"`
	Phases   map[string]PhaseStat `json:"phases,omitempty"`
}

// ExperimentResult is one experiment's outcome from RunExperiments.
type ExperimentResult struct {
	ID    string        `json:"id"`
	Title string        `json:"title"`
	Text  string        `json:"-"`    // rendered table (empty if Err)
	CSV   string        `json:"-"`    // CSV rendering of the same table
	Err   error         `json:"-"`    // this experiment's failure, if any
	Wall  time.Duration `json:"wall"` // wall-clock time of the runner
	Stats RunStats      `json:"stats"`
}

// RunExperiments regenerates the given tables and figures (nil or empty
// ids means all of them, in paper order) on a bounded parallel engine over
// one shared corpus. Results come back in request order with per-
// experiment stats; the first failing experiment's error (in that order)
// is returned alongside the full result set. Cancel ctx to abandon
// unstarted work.
func RunExperiments(ctx context.Context, ids []string, opt EngineOptions) ([]ExperimentResult, error) {
	runners, err := bench.ResolveIDs(ids)
	if err != nil {
		return nil, fmt.Errorf("codedensity: %w (have %v)", err, ExperimentIDs())
	}
	engine := bench.NewEngine(bench.NewCorpus(), bench.EngineOptions{Parallel: opt.Parallel})
	results, runErr := engine.Run(ctx, runners)
	out := make([]ExperimentResult, len(results))
	for i, r := range results {
		er := ExperimentResult{ID: r.ID, Title: r.Title, Err: r.Err, Wall: r.Wall}
		if r.Table != nil {
			er.Text = r.Table.Render()
			er.CSV = r.Table.RenderCSV()
		}
		er.Stats = RunStats{Counters: r.Stats.Counters}
		if len(r.Stats.Phases) > 0 {
			er.Stats.Phases = make(map[string]PhaseStat, len(r.Stats.Phases))
			for k, v := range r.Stats.Phases {
				er.Stats.Phases[k] = PhaseStat{Count: v.Count, Nanos: v.Nanos}
			}
		}
		out[i] = er
	}
	return out, runErr
}

// RunExperiment regenerates one of the paper's tables or figures (or an
// extension experiment) and returns it rendered as text. It is a thin
// sequential wrapper around RunExperiments.
func RunExperiment(id string) (string, error) {
	results, err := RunExperiments(context.Background(), []string{id}, EngineOptions{Parallel: 1})
	if err != nil {
		return "", err
	}
	return results[0].Text, nil
}
