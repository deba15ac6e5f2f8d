package huffman

import (
	"testing"

	"repro/internal/cache"
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

// refillRun runs cpu under a direct-mapped I-cache of lines 32-byte lines
// and returns its misses and the bytes those misses refill, priced by
// RefillBytes.
func refillRun(t *testing.T, cpu *machine.CPU, img *CCRPImage, lines int) (misses, refill int64) {
	t.Helper()
	ic, err := cache.New(cache.Config{SizeBytes: 32 * lines, LineBytes: 32, Assoc: 1})
	if err != nil {
		t.Fatal(err)
	}
	cpu.TraceFetch = func(addr uint32, nbytes int) {
		before := ic.Stats.Misses
		ic.Access(addr, nbytes)
		refill += (ic.Stats.Misses - before) * img.RefillBytes(addr)
	}
	if _, err := cpu.Run(200_000_000); err != nil {
		t.Fatal(err)
	}
	return ic.Stats.Misses, refill
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
		cpu, err := img.NewMachine()
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
		if orig.Stats != cpu.Stats {
			t.Fatalf("%s: CPU-side counters differ:\nnative %+v\nccrp   %+v", name, orig.Stats, cpu.Stats)
		}
		// Compressed refills move fewer bytes than raw refills would.
		if err := cpu.Reset(); err != nil {
			t.Fatal(err)
		}
		misses, refill := refillRun(t, cpu, img, 64)
		if misses == 0 || refill == 0 {
			t.Fatalf("%s: no refill traffic recorded", name)
		}
		if raw := misses * int64(img.LineSize); refill >= raw {
			t.Fatalf("%s: refill traffic %d not below raw %d", name, refill, raw)
		}
	}
}

func TestCCRPTinyCacheStillCorrect(t *testing.T) {
	// A single-line cache thrashes: it misses more than a 256-line one,
	// and the program's behavior does not depend on either.
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	img, err := BuildCCRPImage(p, DefaultCCRP())
	if err != nil {
		t.Fatal(err)
	}
	big, err := img.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	bigMisses, _ := refillRun(t, big, img, 256)
	tiny, err := img.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	tinyMisses, _ := refillRun(t, tiny, img, 1)
	if string(big.Output()) != string(tiny.Output()) {
		t.Fatal("cache size changed program behavior")
	}
	if tinyMisses <= bigMisses {
		t.Fatalf("tiny cache misses %d not above big cache %d", tinyMisses, bigMisses)
	}
}

// TestCCRPMachineFusedAndResettable: a CCRP machine is its decoded text on
// the shared engine, so on every corpus program it runs entirely on the
// fused loop, and Reset+Run repeats its output and counters.
func TestCCRPMachineFusedAndResettable(t *testing.T) {
	for _, name := range synth.BenchmarkNames() {
		p, err := synth.Generate(name)
		if err != nil {
			t.Fatal(err)
		}
		img, err := BuildCCRPImage(p, DefaultCCRP())
		if err != nil {
			t.Fatal(err)
		}
		cpu, err := img.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		st, err := cpu.Run(200_000_000)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cov := cpu.Fast.Coverage(cpu.Stats.Steps); cov != 1 {
			t.Fatalf("%s: fast-path coverage %v (%s)", name, cov, cpu.Fast.BailSummary())
		}
		out, stats := string(cpu.Output()), cpu.Stats
		if err := cpu.Reset(); err != nil {
			t.Fatal(err)
		}
		st2, err := cpu.Run(200_000_000)
		if err != nil || st2 != st || string(cpu.Output()) != out || cpu.Stats != stats {
			t.Fatalf("%s: rerun %d/%v %+v, first run %d %+v", name, st2, err, cpu.Stats, st, stats)
		}
	}
}

func TestCCRPFrontendValidation(t *testing.T) {
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildCCRPImage(p, CCRP{LineSize: 30}); err == nil {
		t.Error("non-multiple-of-4 line size accepted")
	}
	img, err := BuildCCRPImage(p, DefaultCCRP())
	if err != nil {
		t.Fatal(err)
	}
	for _, entry := range []uint32{img.TextBase - 4, img.TextBase + 2, img.TextBase + uint32(4*img.NumWords)} {
		bad := *img
		bad.Entry = entry
		if _, err := bad.NewMachine(); err == nil {
			t.Errorf("entry %#x accepted", entry)
		}
	}
}
