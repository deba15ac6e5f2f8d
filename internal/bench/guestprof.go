package bench

import (
	"fmt"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/guestprof"
)

func init() {
	Experiments = append(Experiments,
		Runner{ID: "guestprof", Title: "Ext. M: symbolized guest profiles, native vs compressed", Run: ExtGuestProf},
	)
}

// GuestRun is one profiled execution: the aggregated per-function profile
// plus the dictionary-entry heat map (index = rank).
type GuestRun struct {
	Profile *guestprof.Profile
	Heat    []int64
}

// ProfilePair is a benchmark's paired native and compressed guest
// profiles. Because the compressed run symbolizes through the image's
// address map, both sides attribute cycles to the same function names and
// diff directly; the profiler guarantees each side's total equals
// its run's step count (the sides differ only by executed far-branch-stub
// instructions).
type ProfilePair struct {
	Bench      string
	Native     GuestRun
	Compressed GuestRun
}

// profiledRun executes a CPU to completion with the guest profiler on its
// fetch journal, which leaves the run on the fused loop.
func profiledRun(c *Corpus, mk func() (*machineCPU, error), sym *guestprof.SymTab, name string) (GuestRun, error) {
	cpu, err := mk()
	if err != nil {
		return GuestRun{}, err
	}
	gp := guestprof.New(sym)
	gp.Attach(cpu)
	if err := runGuest(c, cpu); err != nil {
		return GuestRun{}, err
	}
	return GuestRun{Profile: gp.Profile(name), Heat: gp.Heat()}, nil
}

// GuestProfilePair profiles one benchmark natively and under the given
// compression options.
func GuestProfilePair(c *Corpus, name string, opt core.Options) (*ProfilePair, error) {
	p, err := c.Program(name)
	if err != nil {
		return nil, err
	}
	img, err := c.Image(name, opt)
	if err != nil {
		return nil, err
	}
	sym, err := img.GuestSymTab()
	if err != nil {
		return nil, err
	}
	pair := &ProfilePair{Bench: name}
	if pair.Native, err = profiledRun(c, func() (*machineCPU, error) { return newNative(p) },
		guestprof.NewProgramSymTab(p), name); err != nil {
		return nil, fmt.Errorf("bench: native profile of %s: %w", name, err)
	}
	if pair.Compressed, err = profiledRun(c, func() (*machineCPU, error) { return core.NewMachine(img) },
		sym, name); err != nil {
		return nil, fmt.Errorf("bench: compressed profile of %s: %w", name, err)
	}
	return pair, nil
}

// ExtGuestProf compares the paired profiles per benchmark: the hottest
// function, its share of cycles (identical on both sides — compression
// preserves the instruction stream), and how the memory-traffic and
// dictionary-expansion costs land on it in the compressed run.
func ExtGuestProf(c *Corpus) (*Table, error) {
	t := &Table{
		ID:      "guestprof",
		Title:   "Guest profile: hottest function, native vs compressed (nibble scheme, entries ≤ 4)",
		Columns: []string{"bench", "steps", "Δsteps", "funcs", "hottest", "flat%", "orig bytes", "comp bytes", "dict insns"},
		Note: "per-function cycle attribution is exact on both sides; Δsteps is the " +
			"compressed run's extra executed instructions (far-branch stubs); " +
			"\"comp bytes\" is the hottest function's program-memory traffic after " +
			"compression and \"dict insns\" its instructions supplied by the dictionary",
	}
	names := c.Names()
	err := rowsInOrder(c, t, len(names), func(i int) ([]string, error) {
		name := names[i]
		pair, err := GuestProfilePair(c, name, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
		if err != nil {
			return nil, err
		}
		np, cp := pair.Native.Profile, pair.Compressed.Profile
		hot := np.Funcs[0]
		chot, ok := cp.FuncByName(hot.Name)
		if !ok {
			return nil, fmt.Errorf("bench: %s: hottest function %q missing from compressed profile", name, hot.Name)
		}
		return []string{
			name,
			fmt.Sprint(np.Total.Cycles),
			fmt.Sprint(cp.Total.Cycles - np.Total.Cycles),
			fmt.Sprint(len(np.Funcs)),
			hot.Name,
			fmt.Sprintf("%.1f", 100*float64(hot.Flat.Cycles)/float64(np.Total.Cycles)),
			fmt.Sprint(hot.Flat.FetchBytes),
			fmt.Sprint(chot.Flat.FetchBytes),
			fmt.Sprint(chot.Flat.Expanded),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
