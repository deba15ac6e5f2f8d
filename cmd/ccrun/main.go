// Command ccrun executes a .ppx program or a .ppz compressed image on the
// simulator and reports execution statistics.
//
// Usage:
//
//	ccrun prog.ppx
//	ccrun -steps 1e8 -cache 1024 prog.ppz
//	ccrun -trace 20 prog.ppz                       # disassemble the first 20 steps
//	ccrun -bundle out.bundle prog.ppz              # stats, profiles and audit as one run bundle
//
// Render a bundle with ccreport.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/machine"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/ppc"
	"repro/internal/sizeaudit"
)

// missCurveInterval is the bundle's cache miss-curve sampling interval,
// in line accesses.
const missCurveInterval = 4096

func main() {
	maxSteps := flag.Int64("steps", 200_000_000, "step budget")
	cacheSize := flag.Int("cache", 0, "simulate an I-cache of this many bytes (direct-mapped, 32B lines)")
	trace := flag.Int("trace", 0, "print the first N executed instructions to stderr")
	bundleDir := flag.String("bundle", "", "write a run bundle (stats, execution profile, guest profile, size audit) to this directory")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ccrun [flags] prog.{ppx,ppz}")
		os.Exit(2)
	}
	wantBundle := *bundleDir != ""
	path := flag.Arg(0)
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	var cpu *machine.CPU
	var img *core.Image
	var sym *guestprof.SymTab
	var sa *sizeaudit.Audit
	id := obs.Identity{Bench: benchName(path)}
	switch {
	case strings.HasSuffix(path, ".ppz"):
		// The frame's method byte selects the codec; no scheme flag needed.
		oi, err := objfile.OpenImage(f)
		if err != nil {
			fatal(err)
		}
		img, _ = oi.(*core.Image)
		id.Method = uint8(oi.Method())
		if c, err := codec.ByMethod(oi.Method()); err == nil {
			id.Codec = c.Name()
		}
		if img != nil && img.Name != "" {
			id.Bench = img.Name
		}
		ex, ok := oi.(codec.Executable)
		if !ok {
			fatal(fmt.Errorf("image codec cannot execute (%T is a size comparator)", oi))
		}
		if cpu, err = ex.NewMachine(); err != nil {
			fatal(err)
		}
		if wantBundle {
			// The audit reconstructs from the image's serialized sideband
			// (the dictionary images' marks), so no recompression is needed;
			// images without marks simply omit the section.
			if aud, ok := oi.(codec.Auditable); ok {
				if sa, err = aud.SizeAudit(); err != nil {
					fatal(err)
				}
			}
			// Compressed runs symbolize through the image's address map, so
			// cycles land on the original program's function names. Images
			// without one get no guest section.
			if img != nil {
				if sym, err = img.GuestSymTab(); err != nil {
					fatal(err)
				}
			}
		}
	default:
		p, err := objfile.ReadProgram(f)
		if err != nil {
			fatal(err)
		}
		id.Codec = "native"
		if p.Name != "" {
			id.Bench = p.Name
		}
		if cpu, err = machine.NewForProgram(p); err != nil {
			fatal(err)
		}
		if wantBundle {
			sym = guestprof.NewProgramSymTab(p)
		}
	}

	var col *obs.Collector
	if wantBundle {
		col = obs.NewCollector(id)
		cpu.Record = col.Recorder()
	}

	var ic *cache.Cache
	var smp *cache.Sampler
	if *cacheSize > 0 {
		ic, err = cache.New(cache.Config{SizeBytes: *cacheSize, LineBytes: 32, Assoc: 1})
		if err != nil {
			fatal(err)
		}
		cpu.TraceFetch = ic.Access
		if wantBundle {
			if smp, err = cache.NewSampler(ic, missCurveInterval); err != nil {
				fatal(err)
			}
			cpu.TraceFetch = smp.Access
		}
	}

	// Tracing puts the run on the Step path, which feeds the profiler's
	// journal hook too.
	if *trace > 0 {
		left := *trace
		cpu.TraceStep = func(si machine.StepInfo) {
			if left > 0 {
				fmt.Fprintf(os.Stderr, "  %08x: %s\n", si.CIA, ppc.Disassemble(si.Word))
				left--
			}
		}
	}
	// The profiler reads the fetch journal, so the run stays fused; it
	// attaches after the cache, whose misses it attributes per fetch.
	var gp *guestprof.Profiler
	if sym != nil {
		gp = guestprof.New(sym)
		gp.ObserveCache(ic)
		gp.Attach(cpu)
	}

	status, err := cpu.Run(*maxSteps)
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(cpu.Output())
	st := cpu.Stats
	fmt.Fprintf(os.Stderr, "exit status %d\n", status)
	fmt.Fprintf(os.Stderr, "steps %d, taken branches %d, syscalls %d\n", st.Steps, st.TakenBranches, st.Syscalls)
	fmt.Fprintf(os.Stderr, "program-memory fetches %d (%d bytes), dictionary expansions %d\n",
		st.MemFetches, st.FetchedBytes, st.Expanded)
	fmt.Fprintf(os.Stderr, "fastpath: %d/%d steps (coverage %.4f), bails: %s\n",
		cpu.Fast.Steps, st.Steps, cpu.Fast.Coverage(st.Steps), cpu.Fast.BailSummary())
	if ic != nil {
		fmt.Fprintf(os.Stderr, "icache: %d accesses, %d misses (%.2f%%)\n",
			ic.Stats.Accesses, ic.Stats.Misses, 100*ic.Stats.MissRate())
	}
	if col == nil {
		return
	}

	var heat []int64
	if gp != nil {
		var sb strings.Builder
		if err := gp.WriteFolded(&sb); err != nil {
			fatal(err)
		}
		col.SetGuest(gp.Profile(id.Bench), sb.String())
		heat = gp.Heat()
	}
	var curve []cache.SamplePoint
	if smp != nil {
		ic.Report(col.Recorder())
		curve = smp.Points
	}
	col.SetProfile(core.CollectRunProfile(img, heat, curve))
	col.SetAudit(sa)
	if err := col.Write(*bundleDir); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "bundle: %s\n", *bundleDir)
}

// benchName strips the directory and the .ppx/.ppz extension: the default
// run identity when the object file carries no name of its own.
func benchName(path string) string {
	base := path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	base = strings.TrimSuffix(base, ".ppx")
	base = strings.TrimSuffix(base, ".ppz")
	return base
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccrun:", err)
	os.Exit(1)
}
