package machine_test

import (
	"bytes"
	"testing"

	"repro/internal/codec"
	_ "repro/internal/core" // registers the dictionary codecs
	"repro/internal/machine"
	"repro/internal/synth"
)

// TestResetRestoresEveryByte runs every synth benchmark natively and
// through every executable dictionary codec, resets the machine, and
// demands its memory equal a freshly built machine's byte for byte; a
// second run must then repeat the first exactly. Dirty-page Reset
// rewrites only the pages a run stored to, so a store path that failed
// to mark its page would leave a stale byte here.
func TestResetRestoresEveryByte(t *testing.T) {
	var dict []codec.Codec
	for _, cd := range codec.Codecs() {
		if _, ok := cd.(codec.Schemed); ok {
			dict = append(dict, cd)
		}
	}
	if len(dict) == 0 {
		t.Fatal("no dictionary codecs registered")
	}
	for _, name := range synth.BenchmarkNames() {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		checkResetRestores(t, name+"/native", func() (*machine.CPU, error) {
			return machine.NewForProgram(p)
		})
		for _, cd := range dict {
			img, err := cd.Compress(p.Clone(), codec.Options{})
			if err != nil {
				t.Fatalf("%s/%s: compress: %v", name, cd.Name(), err)
			}
			ex, ok := img.(codec.Executable)
			if !ok {
				continue
			}
			checkResetRestores(t, name+"/"+cd.Name(), ex.NewMachine)
		}
	}
}

func checkResetRestores(t *testing.T, name string, build func() (*machine.CPU, error)) {
	t.Helper()
	const maxSteps = 200_000_000
	cpu, err := build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	st1, err1 := cpu.Run(maxSteps)
	out1 := append([]byte(nil), cpu.Output()...)
	stats1, fast1 := cpu.Stats, cpu.Fast.Steps
	if err := cpu.Reset(); err != nil {
		t.Fatalf("%s: Reset: %v", name, err)
	}
	fresh, err := build()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, want := machine.RegionBytes(cpu.Mem), machine.RegionBytes(fresh.Mem)
	if len(got) != len(want) {
		t.Fatalf("%s: %d regions after Reset, fresh machine has %d", name, len(got), len(want))
	}
	for rn, w := range want {
		if !bytes.Equal(got[rn], w) {
			t.Fatalf("%s: region %s differs from a fresh machine's after Reset", name, rn)
		}
	}
	st2, err2 := cpu.Run(maxSteps)
	if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
		t.Fatalf("%s: rerun error %v, first run %v", name, err2, err1)
	}
	if st2 != st1 {
		t.Fatalf("%s: rerun exited %d, first run %d", name, st2, st1)
	}
	if !bytes.Equal(cpu.Output(), out1) {
		t.Fatalf("%s: rerun output diverged (%d vs %d bytes)", name, len(cpu.Output()), len(out1))
	}
	if cpu.Stats != stats1 {
		t.Fatalf("%s: rerun stats %+v, first run %+v", name, cpu.Stats, stats1)
	}
	if cpu.Fast.Steps != fast1 {
		t.Fatalf("%s: rerun fast steps %d, first run %d", name, cpu.Fast.Steps, fast1)
	}
}
