package huffman

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/synth"
)

func TestCCRPImageSizesMatchCounters(t *testing.T) {
	// The image's size is exactly its line payloads plus the overhead
	// components it records: the LAT and the code table.
	p, err := synth.Generate("li")
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.New()
	cfg := DefaultCCRP()
	cfg.Stats = rec
	img, err := BuildCCRPImage(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	payload, raw := 0, 0
	for ln, l := range img.Lines {
		payload += len(l)
		if img.Raw[ln] {
			raw++
		}
	}
	want := int64(payload) + snap.Counter("ccrp.lat_bytes") + snap.Counter("ccrp.code_table_bytes")
	if int64(img.CompressedBytes()) != want {
		t.Fatalf("image %d bytes, lines + recorded overheads %d", img.CompressedBytes(), want)
	}
	if snap.Counter("ccrp.lines") != int64(len(img.Lines)) || snap.Counter("ccrp.raw_lines") != int64(raw) {
		t.Fatalf("recorded %d lines (%d raw), image has %d (%d raw)",
			snap.Counter("ccrp.lines"), snap.Counter("ccrp.raw_lines"), len(img.Lines), raw)
	}
	if img.Ratio() >= 1 {
		t.Fatalf("ratio %.3f", img.Ratio())
	}
}

func TestCCRPExecutionMatchesOriginal(t *testing.T) {
	for _, name := range []string{"compress", "li", "go"} {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		orig, err := machine.NewForProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		st1, err := orig.Run(200_000_000)
		if err != nil {
			t.Fatal(err)
		}

		img, err := BuildCCRPImage(p, DefaultCCRP())
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := NewCCRPMachine(img, 64)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := cpu.Run(200_000_000)
		if err != nil {
			t.Fatalf("%s: CCRP execution: %v", name, err)
		}
		if st1 != st2 || string(orig.Output()) != string(cpu.Output()) {
			t.Fatalf("%s: behavior differs: %d/%q vs %d/%q",
				name, st1, orig.Output(), st2, cpu.Output())
		}
		if orig.Stats.Steps != cpu.Stats.Steps {
			t.Fatalf("%s: dynamic instruction counts differ: %d vs %d",
				name, orig.Stats.Steps, cpu.Stats.Steps)
		}
		// Misses must have occurred and charged compressed-line traffic.
		fe := cpu.Frontend().(*CCRPFrontend)
		if fe.Misses == 0 || cpu.Stats.FetchedBytes == 0 {
			t.Fatalf("%s: no refill traffic recorded", name)
		}
		// Compressed refills move fewer bytes than raw refills would.
		rawRefill := fe.Misses * int64(img.LineSize)
		if cpu.Stats.FetchedBytes >= rawRefill {
			t.Fatalf("%s: refill traffic %d not below raw %d", name, cpu.Stats.FetchedBytes, rawRefill)
		}
	}
}

func TestCCRPTinyCacheStillCorrect(t *testing.T) {
	// A single-line buffer thrashes but must stay correct.
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := BuildCCRPImage(p, DefaultCCRP())
	if err != nil {
		t.Fatal(err)
	}
	big, err := NewCCRPMachine(img, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	tiny, err := NewCCRPMachine(img, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tiny.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	if string(big.Output()) != string(tiny.Output()) {
		t.Fatal("cache size changed program behavior")
	}
	bigFE := big.Frontend().(*CCRPFrontend)
	tinyFE := tiny.Frontend().(*CCRPFrontend)
	if tinyFE.Misses <= bigFE.Misses {
		t.Fatalf("tiny cache misses %d not above big cache %d", tinyFE.Misses, bigFE.Misses)
	}
}

func TestCCRPFrontendValidation(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := BuildCCRPImage(p, DefaultCCRP())
	if err != nil {
		t.Fatal(err)
	}
	fe := NewCCRPFrontend(img, 4)
	if err := fe.SetPC(img.TextBase - 4); err == nil {
		t.Error("jump below text accepted")
	}
	if err := fe.SetPC(img.TextBase + 2); err == nil {
		t.Error("unaligned jump accepted")
	}
	if _, err := BuildCCRPImage(p, CCRP{LineSize: 30}); err == nil {
		t.Error("non-multiple-of-4 line size accepted")
	}
}
