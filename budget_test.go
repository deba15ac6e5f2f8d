package codedensity

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/guestprof/guestproftest"
	"repro/internal/machine"
	"repro/internal/synth"
)

// TestRunResumesAfterBudget runs compress in chunks — Run(Stats.Steps+k)
// until it exits — natively and through every executable codec, on the
// fused loop and on the Step path, and demands the one-shot run's status,
// output and Stats from each. A chunk that ends inside a dictionary
// expansion leaves the rest of the entry in the frontend's queue, and the
// next Run must finish it there. Every machine carries a slot observer
// (TraceSlots), and the slots it sees — from the fused loop's journal and
// from Step alike — must add up to the run's steps; the guest profiler
// on the same slots must hold across the chunks' batches and Runs and
// profile each chunked run exactly as the one-shot run.
func TestRunResumesAfterBudget(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	type build struct {
		name  string
		build func() (*machine.CPU, error)
		sym   *guestprof.SymTab
	}
	builds := []build{{"native", func() (*machine.CPU, error) { return machine.NewForProgram(p) }, guestprof.NewProgramSymTab(p)}}
	for _, cd := range codec.Codecs() {
		img, err := cd.Compress(p.Clone(), codec.Options{})
		if err != nil {
			t.Fatalf("%s: %v", cd.Name(), err)
		}
		if ex, ok := img.(codec.Executable); ok {
			sym := guestprof.NewProgramSymTab(p)
			if di, ok := img.(*core.Image); ok {
				if sym, err = di.GuestSymTab(); err != nil {
					t.Fatal(err)
				}
			}
			builds = append(builds, build{cd.Name(), ex.NewMachine, sym})
		}
	}
	for _, b := range builds {
		one, err := b.build()
		if err != nil {
			t.Fatal(err)
		}
		oneProf := guestprof.New(b.sym)
		oneProf.Attach(one)
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
				prof := guestprof.New(b.sym)
				prof.Attach(cpu)
				profile := cpu.TraceSlots
				cpu.TraceSlots = func(pd *machine.Predecode, slots []uint32, cut int) {
					obs.observe(pd, slots, cut)
					profile(pd, slots, cut)
				}
				if stepped {
					cpu.TraceStep = func(machine.StepInfo) {}
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
				if obs.steps != cpu.Stats.Steps {
					t.Fatalf("%s, chunks of %d, stepped=%v: observed slots hold %d steps, the run executed %d",
						b.name, chunk, stepped, obs.steps, cpu.Stats.Steps)
				}
				guestproftest.Same(t, fmt.Sprintf("%s, chunks of %d, stepped=%v", b.name, chunk, stepped), oneProf, prof)
				if status != wantStatus || !bytes.Equal(cpu.Output(), one.Output()) || cpu.Stats != one.Stats {
					t.Fatalf("%s, chunks of %d, stepped=%v: status %d, %d output bytes, stats %+v; one-shot %d, %d bytes, %+v",
						b.name, chunk, stepped, status, len(cpu.Output()), cpu.Stats,
						wantStatus, len(one.Output()), one.Stats)
				}
			}
		}
	}
}
