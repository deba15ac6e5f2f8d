package objfile

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	"repro/internal/machine"
	"repro/internal/synth"
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
// or another error — never a panic.
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
		img, err := OpenImage(bytes.NewReader(frame))
		if err != nil {
			return
		}
		ex, ok := img.(codec.Executable)
		if !ok {
			return
		}
		for _, stepped := range []bool{false, true} {
			cpu, err := ex.NewMachine()
			if err != nil {
				return
			}
			if stepped {
				cpu.TraceStep = func(machine.StepInfo) {}
			}
			_, err = cpu.Run(1 << 20)
			if exited, _ := cpu.Exited(); err == nil && !exited || cpu.Stats.Steps > 1<<20 {
				t.Fatalf("stepped=%v: Run returned %v after %d steps, exited=%v", stepped, err, cpu.Stats.Steps, exited)
			}
		}
	})
}
