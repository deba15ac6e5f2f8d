package codedensity

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/codec"
	"repro/internal/machine"
	"repro/internal/synth"
)

// TestRunResumesAfterBudget runs compress in chunks — Run(Stats.Steps+k)
// until it exits — natively and through every executable codec, on the
// fused loop and on the Step path, and demands the one-shot run's status,
// output and Stats from each. A chunk that ends inside a dictionary
// expansion leaves the rest of the entry in the frontend's queue, and the
// next Run must finish it there. The fused machines carry a slot observer
// (TraceSlots), and the slots it sees must still add up to their fast
// steps.
func TestRunResumesAfterBudget(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	builds := []struct {
		name  string
		build func() (*machine.CPU, error)
	}{{"native", func() (*machine.CPU, error) { return machine.NewForProgram(p) }}}
	for _, cd := range codec.Codecs() {
		img, err := cd.Compress(p.Clone(), codec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", cd.Name(), err)
		}
		if ex, ok := img.(codec.Executable); ok {
			builds = append(builds, struct {
				name  string
				build func() (*machine.CPU, error)
			}{cd.Name(), ex.NewMachine})
		}
	}
	for _, b := range builds {
		one, err := b.build()
		if err != nil {
			t.Fatal(err)
		}
		wantStatus, err := one.Run(1 << 40)
		if err != nil {
			t.Fatalf("%s: one-shot run: %v", b.name, err)
		}
		for _, chunk := range []int64{1, 7, 13, 101} {
			for _, stepped := range []bool{false, true} {
				cpu, err := b.build()
				if err != nil {
					t.Fatal(err)
				}
				obs := &slotSum{}
				if stepped {
					cpu.TraceStep = func(machine.StepInfo) {}
				} else {
					cpu.TraceSlots = obs.observe
				}
				var status int32
				for {
					status, err = cpu.Run(cpu.Stats.Steps + chunk)
					if err == nil {
						break
					}
					var f *machine.Fault
					if errors.As(err, &f) || cpu.Stats.Steps > 2*one.Stats.Steps {
						t.Fatalf("%s, chunks of %d, stepped=%v: %v after %d steps",
							b.name, chunk, stepped, err, cpu.Stats.Steps)
					}
				}
				if obs.steps != cpu.Fast.Steps {
					t.Fatalf("%s, chunks of %d: observed slots hold %d steps, fast path executed %d",
						b.name, chunk, obs.steps, cpu.Fast.Steps)
				}
				if status != wantStatus || !bytes.Equal(cpu.Output(), one.Output()) || cpu.Stats != one.Stats {
					t.Fatalf("%s, chunks of %d, stepped=%v: status %d, %d output bytes, stats %+v; one-shot %d, %d bytes, %+v",
						b.name, chunk, stepped, status, len(cpu.Output()), cpu.Stats,
						wantStatus, len(one.Output()), one.Stats)
				}
			}
		}
	}
}
