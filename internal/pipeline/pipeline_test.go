package pipeline

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/synth"
)

func TestMeasureAccounting(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := machine.NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(10)
	r, err := Measure(cpu, cfg.ICache, 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Steps + cfg.BranchPenalty*r.TakenBranches + cfg.ExpandPenalty*r.Expanded + cfg.MissPenalty*r.Misses
	if got := r.Cycles(cfg); got != want {
		t.Fatalf("cycles %d, want %d", got, want)
	}
	if r.Expanded != 0 {
		t.Fatalf("normal path reported %d expansions", r.Expanded)
	}
	if r.CPI(cfg) < 1 {
		t.Fatalf("CPI %f below 1", r.CPI(cfg))
	}
}

func TestCompressedPaysDecodeAndSavesMisses(t *testing.T) {
	p, err := synth.Generate("li")
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p.Clone(), core.Options{Scheme: codeword.Nibble})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(mk func() (*machine.CPU, error)) Report {
		cpu, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		r, err := Measure(cpu, DefaultConfig(0).ICache, 200_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	n := measure(func() (*machine.CPU, error) { return machine.NewForProgram(p) })
	c := measure(func() (*machine.CPU, error) { return core.NewMachine(img) })

	// With free memory the compressed path can only lose (decode penalty).
	free := DefaultConfig(0)
	if c.Cycles(free) < n.Cycles(free) {
		t.Fatalf("compression faster with free memory: %d vs %d", c.Cycles(free), n.Cycles(free))
	}
	if c.Expanded == 0 {
		t.Fatal("compressed run reported no expansions")
	}
	// With expensive memory the miss savings dominate.
	dear := DefaultConfig(50)
	if c.Cycles(dear) >= n.Cycles(dear) {
		t.Fatalf("compression not faster at 50-cycle misses: %d vs %d", c.Cycles(dear), n.Cycles(dear))
	}
	if c.Misses >= n.Misses {
		t.Fatalf("compressed image missed more: %d vs %d", c.Misses, n.Misses)
	}
}

func TestMeasureBadCache(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := machine.NewForProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1)
	cfg.ICache = cache.Config{SizeBytes: 7, LineBytes: 3}
	if _, err := Measure(cpu, cfg.ICache, 1000); err == nil {
		t.Fatal("bad cache config accepted")
	}
}
