package main

import (
	"fmt"

	"repro/internal/program"
	"repro/internal/synth"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name  string `json:"name"`
	Why   string `json:"why"`
	setup func(*env) (inputs, error)
}

// workloads is the registry BENCHMARK.json mirrors (main_test checks it).
var workloads = []workload{
	{Name: "reproduce", Why: "the paper's 27 deterministic experiments on its own corpus (seed ignored): ~160 compressions of 8 programs under ~20 configs, the only place reuse across configs shows", setup: setupReproduce},
	{Name: "compress", Why: "each seeded program through all 6 registered codecs with verify and an objfile round trip: per-build cost with no reuse, and the only timing of verify, objfile and CCRP/LZW", setup: setupCompress},
	{Name: "fleet", Why: "one shared dictionary over all 8 programs (~165k words, an index far larger than the per-core caches), then compress, verify and reopen each program against it", setup: setupFleet},
	{Name: "execute", Why: "warm Reset+Run requests over 8 native and 8 nibble machines on the fused fast path; set-up includes cold starts from serialized images", setup: setupExecute},
	{Name: "icache", Why: "the same 16 machines with a fresh direct-mapped I-cache on the fetch hook, which forces the hooked Step path the cache experiments use", setup: setupICache},
}

// scale sizes the inputs. full is what the command runs; the smoke test
// substitutes a tiny one.
type scale struct {
	names       []string // benchmark profiles the programs are drawn from
	experiments []string // reproduce: experiment ids; nil means all deterministic ones
	setups      int      // set-ups per run; setup_s is their median
	candidates  int      // execute, icache: programs drawn per profile to pick the median-length one from
	coldRounds  int      // execute: cold starts of every image during set-up
	reps        int      // execute: requests per machine per pass
}

var full = scale{
	names:      synth.BenchmarkNames(),
	setups:     3,
	candidates: 5,
	coldRounds: 3,
	reps:       8,
}

// programs generates draws programs per profile, each under a
// synth.generate span. The generator seed is the profile's own plus 1000
// times the workload seed plus 100 times the draw, so seed 0's first draw
// is the paper's corpus.
func programs(e *env, draws int) ([]*program.Program, error) {
	var out []*program.Program
	for k := 0; k < draws; k++ {
		for _, name := range e.scale.names {
			prof, err := synth.ProfileFor(name)
			if err != nil {
				return nil, err
			}
			prof.Seed += 1000*e.seed + 100*int64(k)
			sp := e.span.Child("synth.generate")
			p, err := synth.GenerateProfile(prof)
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("generating %s (seed %d): %w", name, prof.Seed, err)
			}
			out = append(out, p)
		}
	}
	return out, nil
}

// words is the total text size of the programs in instruction words.
func words(progs []*program.Program) int64 {
	var n int64
	for _, p := range progs {
		n += int64(len(p.Text))
	}
	return n
}
