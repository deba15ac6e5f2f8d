package objfile

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/huffman"
	"repro/internal/machine"
	"repro/internal/program"
	"repro/internal/synth"
	"repro/internal/wire"
)

// FuzzCodecRoundTrip drives every registered codec over fuzzer-shaped
// synthetic programs: compress, verify, serialize through the versioned
// frame, reopen from nothing but the method byte, and — for executable
// codecs — differentially execute the reopened image against the native
// program. Any divergence (payload drift across a round trip, a wrong
// method byte, differing output or exit status) fails.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(800))
	f.Add(int64(42), uint16(2500))
	f.Add(int64(1997), uint16(1400))
	f.Fuzz(func(t *testing.T, seed int64, size uint16) {
		prof, err := synth.ProfileFor("compress")
		if err != nil {
			t.Fatal(err)
		}
		prof.Seed = seed
		prof.TargetWords = 600 + int(size)%2400
		p, err := synth.GenerateProfile(prof)
		if err != nil {
			// Not every profile mutation yields a linkable program; that is
			// the generator's business, not the codecs'.
			t.Skip(err)
		}

		const maxSteps = 50_000_000
		native, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		nativeStatus, err := native.Run(maxSteps)
		if err != nil {
			t.Skipf("native run: %v", err)
		}
		nativeOut := native.Output()

		for _, cd := range codec.Codecs() {
			img, err := cd.Compress(p, codec.Options{})
			if err != nil {
				t.Fatalf("%s: compress: %v", cd.Name(), err)
			}
			if err := cd.Verify(p, img); err != nil {
				t.Fatalf("%s: verify: %v", cd.Name(), err)
			}

			var frame bytes.Buffer
			if err := WriteImage(&frame, img); err != nil {
				t.Fatalf("%s: write frame: %v", cd.Name(), err)
			}
			got, err := OpenImage(bytes.NewReader(frame.Bytes()))
			if err != nil {
				t.Fatalf("%s: reopen: %v", cd.Name(), err)
			}
			if got.Method() != cd.Method() {
				t.Fatalf("%s: reopened method %#x, want %#x", cd.Name(), got.Method(), cd.Method())
			}
			var before, after bytes.Buffer
			if err := cd.WriteImage(&before, img); err != nil {
				t.Fatal(err)
			}
			if err := cd.WriteImage(&after, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before.Bytes(), after.Bytes()) {
				t.Fatalf("%s: payload drifted across a serialize/reopen cycle", cd.Name())
			}

			ex, ok := got.(codec.Executable)
			if !ok {
				continue // size comparators have nothing to execute
			}
			cpu, err := ex.NewMachine()
			if err != nil {
				t.Fatalf("%s: new machine: %v", cd.Name(), err)
			}
			status, err := cpu.Run(maxSteps)
			if err != nil {
				t.Fatalf("%s: compressed run: %v", cd.Name(), err)
			}
			if status != nativeStatus {
				t.Fatalf("%s: exit status %d, native %d", cd.Name(), status, nativeStatus)
			}
			if !bytes.Equal(cpu.Output(), nativeOut) {
				t.Fatalf("%s: output diverged from native (%d vs %d bytes)",
					cd.Name(), len(cpu.Output()), len(nativeOut))
			}
		}
	})
}

// FuzzOpenImage feeds arbitrary bytes to OpenImage, seeded with one frame
// per registered codec of a small synthetic program. OpenImage must never
// panic, and an image that opens and can execute must run Run(1<<20) on
// the fused loop and on the TraceStep path to an exit, the budget error
// or another error — never a panic, a nil return without an exit, or a
// step past the budget. Every error on the way must be one of the typed
// families TestMutatedFramesFailTyped admits.
func FuzzOpenImage(f *testing.F) {
	prof, err := synth.ProfileFor("compress")
	if err != nil {
		f.Fatal(err)
	}
	prof.TargetWords, prof.MegaFuncs, prof.NScalars, prof.NArrays, prof.ArrayLenPow = 50, 0, 2, 1, 2
	p, err := synth.GenerateProfile(prof)
	if err != nil {
		f.Fatal(err)
	}
	for _, cd := range codec.Codecs() {
		img, err := cd.Compress(p, codec.Options{})
		if err != nil {
			f.Fatalf("%s: compress: %v", cd.Name(), err)
		}
		var frame bytes.Buffer
		if err := WriteImage(&frame, img); err != nil {
			f.Fatalf("%s: write: %v", cd.Name(), err)
		}
		f.Add(frame.Bytes())
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		if stage, err := probeFrame(frame, 1<<20); err != nil && errorFamily(err) == "" {
			t.Fatalf("%s: untyped error %v", stage, err)
		}
	})
}

// FuzzReadProgram feeds arbitrary bytes to ReadProgram and
// ReadDictionary, seeded with every corpus program's PPX1 file and one
// PPDX dictionary shared by two of them. Neither may panic, and what either
// accepts must validate, write back to exactly the bytes it was read from,
// and read back unchanged.
func FuzzReadProgram(f *testing.F) {
	var progs []*program.Program
	for _, name := range synth.BenchmarkNames() {
		p, err := synth.Generate(name)
		if err != nil {
			f.Fatal(err)
		}
		var file bytes.Buffer
		if err := WriteProgram(&file, p); err != nil {
			f.Fatalf("%s: %v", name, err)
		}
		f.Add(file.Bytes())
		progs = append(progs, p)
	}
	entries, err := core.BuildSharedDictionary(progs[:2], core.Options{Scheme: codeword.Baseline})
	if err != nil {
		f.Fatal(err)
	}
	var dict bytes.Buffer
	if err := WriteDictionary(&dict, entries); err != nil {
		f.Fatal(err)
	}
	f.Add(dict.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := ReadProgram(bytes.NewReader(data)); err == nil {
			if err := p.Validate(); err != nil {
				t.Fatalf("accepted an invalid program: %v", err)
			}
			var out bytes.Buffer
			if err := WriteProgram(&out, p); err != nil {
				t.Fatalf("accepted program does not write: %v", err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("program rewrote to %d different bytes from %d", out.Len(), len(data))
			}
			if q, err := ReadProgram(&out); err != nil || !reflect.DeepEqual(p, q) {
				t.Fatalf("program changed across a round trip: %v", err)
			}
		}
		if entries, err := ReadDictionary(bytes.NewReader(data)); err == nil {
			var out bytes.Buffer
			if err := WriteDictionary(&out, entries); err != nil {
				t.Fatalf("accepted dictionary does not write: %v", err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("dictionary rewrote to %d different bytes from %d", out.Len(), len(data))
			}
			if got, err := ReadDictionary(&out); err != nil || !reflect.DeepEqual(entries, got) {
				t.Fatalf("dictionary changed across a round trip: %v", err)
			}
		}
	})
}

// TestMutatedFramesFailTyped is a deterministic hostile-input probe: one
// frame per registered codec of the compress program, each copied with 1–4
// bytes changed and, one time in ten, cut short, then opened, given a
// machine and run for 1<<20 steps on the fused loop and on the TraceStep
// path. Every failure must be one the caller can match — io.ErrUnexpectedEOF,
// *wire.FormatError, *core.HeaderError, *huffman.LineError,
// *machine.Fault, or the step budget running out — and no run may panic
// or execute past its budget.
func TestMutatedFramesFailTyped(t *testing.T) {
	const (
		perCodec = 300
		budget   = 1 << 20
	)
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1997))
	start := time.Now()
	tally := map[string]int{}
	for _, cd := range codec.Codecs() {
		img, err := cd.Compress(p, codec.Options{})
		if err != nil {
			t.Fatalf("%s: compress: %v", cd.Name(), err)
		}
		var frame bytes.Buffer
		if err := WriteImage(&frame, img); err != nil {
			t.Fatalf("%s: write: %v", cd.Name(), err)
		}
		for i := 0; i < perCodec; i++ {
			bad := append([]byte(nil), frame.Bytes()...)
			for n := 1 + rng.Intn(4); n > 0; n-- {
				bad[rng.Intn(len(bad))] ^= byte(1 + rng.Intn(255))
			}
			if rng.Intn(10) == 0 {
				bad = bad[:rng.Intn(len(bad))]
			}
			stage, err := probeFrame(bad, budget)
			if err == nil {
				tally[stage]++
				continue
			}
			family := errorFamily(err)
			if family == "" {
				t.Fatalf("%s frame %d: %s: untyped error %v", cd.Name(), i, stage, err)
			}
			tally[stage+" "+family]++
		}
	}
	t.Logf("%d frames in %v: %v", perCodec*len(codec.Codecs()), time.Since(start).Round(time.Millisecond), tally)
}

// probeFrame opens a frame and runs what opens on both execution paths,
// returning the stage it stopped at and the error that stopped it, or a
// nil error once both runs exit, fault or exhaust their budget. A run past
// its budget, and a Run that returns nil without exiting, are returned as
// errors of no family; a non-fault error is taken for the budget only when
// the run stopped at exactly its budget.
func probeFrame(frame []byte, budget int64) (string, error) {
	img, err := OpenImage(bytes.NewReader(frame))
	if err != nil {
		return "open", err
	}
	ex, ok := img.(codec.Executable)
	if !ok {
		return "opened", nil
	}
	stage := "exited"
	for _, stepped := range []bool{false, true} {
		cpu, err := ex.NewMachine()
		if err != nil {
			return "new machine", err
		}
		if stepped {
			cpu.TraceStep = func(machine.StepInfo) {}
		}
		_, err = cpu.Run(budget)
		exited, _ := cpu.Exited()
		var fault *machine.Fault
		switch {
		case cpu.Stats.Steps > budget:
			return "run", fmt.Errorf("ran %d steps past a budget of %d", cpu.Stats.Steps, budget)
		case err == nil && !exited:
			return "run", fmt.Errorf("Run returned nil without exiting after %d steps", cpu.Stats.Steps)
		case err == nil: // exited
		case errors.As(err, &fault):
			stage = "fault"
		case cpu.Stats.Steps == budget && !exited:
			stage = "budget"
		default:
			return "run", err // neither a fault nor the budget: errorFamily judges it
		}
	}
	return stage, nil
}

// errorFamily names the typed family err belongs to, or "" if none.
func errorFamily(err error) string {
	var (
		fe    *wire.FormatError
		he    *core.HeaderError
		le    *huffman.LineError
		fault *machine.Fault
	)
	switch {
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "eof"
	case errors.As(err, &fe):
		return "format:" + fe.Field
	case errors.As(err, &he):
		return "header:" + he.Field
	case errors.As(err, &le):
		return "line"
	case errors.As(err, &fault):
		return "fault"
	}
	return ""
}
