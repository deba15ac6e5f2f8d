package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/machine"
	"repro/internal/objfile"
	"repro/internal/program"
	"repro/internal/trace"
)

// Span names of machine runs. Warm runs are named by fetch path so
// ns/step can be split; set-up runs (references, cold starts) stay out of
// those numbers.
const (
	runNative     = "machine.run.native"
	runCompressed = "machine.run.compressed"
	runHooked     = "machine.run.hooked"
	runSetup      = "machine.run.setup"

	// bailPrefix names the fast-path bail counters, as machine exports them
	// through CPU.Record.
	bailPrefix = "machine.fastpath.bail."

	// stepBudget bounds every guest run; the generated programs exit after
	// at most a few tens of thousands of steps.
	stepBudget = 50_000_000
)

// cacheSizes are the direct-mapped I-cache sizes the icache workload
// attaches, with 32-byte lines: the range the paper's cache experiments use.
var cacheSizes = []int{512, 1024, 2048, 4096, 8192}

// guest is one machine and the reference result every run of it must
// reproduce: the native run's exit status and output, and its own step
// count (far-branch stubs make a compressed image take a few more steps).
type guest struct {
	label  string
	class  string // "native" or "compressed"
	span   string // span name of its warm runs
	cpu    *machine.CPU
	status int32
	out    []byte
	steps  int64
}

// mismatch compares a finished run of cpu with the guest's reference.
func (g *guest) mismatch(cpu *machine.CPU, st int32, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: %w", g.label, err)
	case st != g.status || cpu.Stats.Steps != g.steps || !bytes.Equal(cpu.Output(), g.out):
		return fmt.Errorf("%s: exit %d after %d steps printing %q, want exit %d after %d steps printing %q",
			g.label, st, cpu.Stats.Steps, cpu.Output(), g.status, g.steps, g.out)
	}
	return nil
}

// check is mismatch for a run inside a pass: a mismatch is a failed op.
func (g *guest) check(m *meter, st int32, err error) bool {
	if err := g.mismatch(g.cpu, st, err); err != nil {
		m.fail("%v", err)
		return false
	}
	return true
}

// record adds one run's machine counters under the names CPU.Record uses.
func record(m *meter, cpu *machine.CPU, class string) {
	if m.stats == nil {
		return
	}
	m.stats.Add("machine.steps", cpu.Stats.Steps)
	m.tally.addSteps(class, cpu.Stats.Steps)
	m.stats.Add("machine.fetched_bytes", cpu.Stats.FetchedBytes)
	m.stats.Add("machine.fastpath.steps", cpu.Fast.Steps)
	for r, n := range cpu.Fast.Bails {
		if n != 0 {
			m.stats.Add(bailPrefix+machine.BailReason(r).String(), n)
		}
	}
}

// typicalPrograms draws scale.candidates programs per profile and keeps,
// for each profile, the one whose native run takes the median number of
// steps. A single draw's run length changes several-fold from seed to seed
// (from a few hundred to tens of thousands of steps), and with Reset a
// fixed cost per request, the time per instruction of a pass would follow
// the seed rather than the code.
func typicalPrograms(e *env) ([]*program.Program, error) {
	draws, err := programs(e, e.scale.candidates)
	if err != nil {
		return nil, err
	}
	type candidate struct {
		p     *program.Program
		steps int64
	}
	n := len(e.scale.names)
	out := make([]*program.Program, n)
	for i := range out {
		var cs []candidate
		for k := i; k < len(draws); k += n {
			g := &guest{label: draws[k].Name + " candidate"}
			sp := e.span.Child("machine.new")
			g.cpu, err = machine.NewForProgram(draws[k])
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", g.label, err)
			}
			if err := g.reference(e, nil); err != nil {
				return nil, err
			}
			cs = append(cs, candidate{draws[k], g.steps})
		}
		sort.SliceStable(cs, func(a, b int) bool { return cs[a].steps < cs[b].steps })
		out[i] = cs[len(cs)/2].p
	}
	return out, nil
}

// references compresses every program with the nibble codec and runs the
// program and its image once each. It returns two guests per program,
// native then compressed, and the images. A compressed run that differs
// from the native one fails the set-up.
func references(e *env, progs []*program.Program) ([]*guest, []codec.Image, error) {
	nibble, err := codec.ByName("nibble")
	if err != nil {
		return nil, nil, err
	}
	var gs []*guest
	var imgs []codec.Image
	for _, p := range progs {
		label := p.Name
		sp := e.span.Child("machine.new")
		ncpu, err := machine.NewForProgram(p)
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", label, err)
		}
		native := &guest{label: label + " native", class: "native", span: runNative, cpu: ncpu}
		if err := native.reference(e, nil); err != nil {
			return nil, nil, err
		}

		csp := e.span.Child("codec.nibble.compress")
		img, err := nibble.Compress(p, codec.Options{Stats: e.stats, Trace: csp})
		csp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: compress: %w", label, err)
		}
		sp = e.span.Child("machine.new")
		ccpu, err := img.(codec.Executable).NewMachine()
		sp.End()
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", label, err)
		}
		comp := &guest{label: label + " nibble", class: "compressed", span: runCompressed, cpu: ccpu}
		if err := comp.reference(e, native); err != nil {
			return nil, nil, err
		}
		gs = append(gs, native, comp)
		imgs = append(imgs, img)
	}
	return gs, imgs, nil
}

// reference runs the guest's machine once and records the result; a
// compressed guest must match its native twin's status and output.
func (g *guest) reference(e *env, twin *guest) error {
	sp := e.span.Child(runSetup)
	st, err := g.cpu.Run(stepBudget)
	sp.End()
	if err != nil {
		return fmt.Errorf("%s: %w", g.label, err)
	}
	g.status, g.out, g.steps = st, append([]byte(nil), g.cpu.Output()...), g.cpu.Stats.Steps
	if twin != nil && (g.status != twin.status || !bytes.Equal(g.out, twin.out)) {
		return fmt.Errorf("%s: exit %d printing %q, native exits %d printing %q", g.label, g.status, g.out, twin.status, twin.out)
	}
	return nil
}

func ratios(imgs []codec.Image) []float64 {
	out := make([]float64, len(imgs))
	for i, img := range imgs {
		out[i] = img.Ratio()
	}
	return out
}

// shuffled lists every index below n reps times, in an order drawn from
// the seed, so each pass serves every machine equally often.
func shuffled(seed int64, n, reps int) []int {
	order := make([]int, 0, n*reps)
	for r := 0; r < reps; r++ {
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// execute serves warm requests: Reset then Run of one machine.
type execute struct {
	guests []*guest
	order  []int
	steps  int64
	ratios []float64
}

// setupExecute prepares a serving process: compress, serialize, then cold
// start every image coldRounds times (open, build the machine, predecode,
// run). The last round's machines serve the warm requests.
func setupExecute(e *env) (inputs, error) {
	progs, err := typicalPrograms(e)
	if err != nil {
		return nil, err
	}
	gs, imgs, err := references(e, progs)
	if err != nil {
		return nil, err
	}
	files := make([][]byte, len(gs))
	for i, p := range progs {
		var buf bytes.Buffer
		sp := e.span.Child("objfile.write")
		err := objfile.WriteProgram(&buf, p)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", gs[2*i].label, err)
		}
		files[2*i] = bytes.Clone(buf.Bytes())
		buf.Reset()
		sp = e.span.Child("objfile.write")
		err = objfile.WriteImage(&buf, imgs[i])
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", gs[2*i+1].label, err)
		}
		e.tally.addImage(buf.Len())
		files[2*i+1] = bytes.Clone(buf.Bytes())
	}
	for r := 0; r < e.scale.coldRounds; r++ {
		for i, g := range gs {
			cpu, err := coldStart(e, g, files[i])
			if err != nil {
				return nil, err
			}
			g.cpu = cpu
		}
	}
	x := &execute{guests: gs, order: shuffled(e.seed, len(gs), e.scale.reps), ratios: ratios(imgs)}
	for _, i := range x.order {
		x.steps += gs[i].steps
	}
	return x, nil
}

// coldStart brings up a machine from its serialized form and runs it once.
func coldStart(e *env, g *guest, file []byte) (*machine.CPU, error) {
	cs := e.span.Child("cold_start")
	defer cs.End()
	sp := cs.Child("objfile.open")
	var cpu *machine.CPU
	var err error
	if g.class == "native" {
		var p *program.Program
		p, err = objfile.ReadProgram(bytes.NewReader(file))
		sp.End()
		if err == nil {
			sp = cs.Child("machine.new")
			cpu, err = machine.NewForProgram(p)
			sp.End()
		}
	} else {
		var img codec.Image
		img, err = objfile.OpenImage(bytes.NewReader(file))
		sp.End()
		if err == nil {
			sp = cs.Child("machine.new")
			cpu, err = img.(codec.Executable).NewMachine()
			sp.End()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: cold start: %w", g.label, err)
	}
	sp = cs.Child("machine.predecode")
	if fe, ok := cpu.Frontend().(machine.PredecodedFrontend); ok {
		fe.Predecode()
	}
	sp.End()
	sp = cs.Child(runSetup)
	st, err := cpu.Run(stepBudget)
	sp.End()
	if err := g.mismatch(cpu, st, err); err != nil {
		return nil, fmt.Errorf("cold start: %w", err)
	}
	return cpu, nil
}

func (x *execute) pass(m *meter) {
	for _, i := range x.order {
		g := x.guests[i]
		sp := m.op()
		st, err := request(sp, g.cpu, g.span)
		sp.End()
		g.check(m, st, err)
		record(m, g.cpu, g.class)
	}
}

// request is one request: Reset, then Run under the named span.
func request(sp *trace.Span, cpu *machine.CPU, span string) (int32, error) {
	rsp := sp.Child("machine.reset")
	err := cpu.Reset()
	rsp.End()
	if err != nil {
		return 0, err
	}
	usp := sp.Child(span)
	defer usp.End()
	return cpu.Run(stepBudget)
}

func (x *execute) work() int64 { return x.steps }

func (x *execute) ratio() float64 { return geomean(x.ratios) }

// icache runs the same machines with a fresh direct-mapped I-cache on the
// fetch hook, which keeps every run on the instrumented Step path.
type icache struct {
	guests []*guest
	probes []probe
	order  []int
	steps  int64
	ratios []float64
}

// probe is one (machine, cache size) pair and its reference miss count.
type probe struct {
	guest  int
	size   int
	misses int64
}

func newCache(size int) (*cache.Cache, error) {
	return cache.New(cache.Config{SizeBytes: size, LineBytes: 32, Assoc: 1})
}

func setupICache(e *env) (inputs, error) {
	progs, err := typicalPrograms(e)
	if err != nil {
		return nil, err
	}
	gs, imgs, err := references(e, progs)
	if err != nil {
		return nil, err
	}
	x := &icache{guests: gs, ratios: ratios(imgs)}
	for i, g := range gs {
		for _, size := range cacheSizes {
			c, err := newCache(size)
			if err != nil {
				return nil, err
			}
			g.cpu.TraceFetch = c.Access
			st, err := request(e.span, g.cpu, runSetup)
			g.cpu.TraceFetch = nil
			if err := g.mismatch(g.cpu, st, err); err != nil {
				return nil, fmt.Errorf("hooked run: %w", err)
			}
			x.probes = append(x.probes, probe{guest: i, size: size, misses: c.Stats.Misses})
		}
	}
	x.order = shuffled(e.seed, len(x.probes), 1)
	for _, i := range x.order {
		x.steps += gs[x.probes[i].guest].steps
	}
	return x, nil
}

func (x *icache) pass(m *meter) {
	for _, i := range x.order {
		q := x.probes[i]
		g := x.guests[q.guest]
		sp := m.op()
		csp := sp.Child("cache.new")
		c, err := newCache(q.size)
		csp.End()
		if err != nil {
			sp.End()
			m.fail("%s: cache of %d bytes: %v", g.label, q.size, err)
			continue
		}
		g.cpu.TraceFetch = c.Access
		st, err := request(sp, g.cpu, runHooked)
		g.cpu.TraceFetch = nil
		sp.End()
		if g.check(m, st, err) && c.Stats.Misses != q.misses {
			m.fail("%s: %d misses in a %d-byte cache, want %d", g.label, c.Stats.Misses, q.size, q.misses)
		}
		record(m, g.cpu, "hooked")
		m.stats.Add("cache.accesses", c.Stats.Accesses)
		m.stats.Add("cache.misses", c.Stats.Misses)
	}
}

// extras measures the cache model's own cost: each probe's best-of-3 run
// with a fresh cache's Access on the hook minus its best-of-3 run with a
// no-op hook, summed over the probes and divided by their accesses.
func (x *icache) extras(rep report) {
	noop := func(uint32, int) {}
	var delta time.Duration
	var accesses int64
	for _, q := range x.probes {
		cpu := x.guests[q.guest].cpu
		timed := func(hook func(uint32, int)) time.Duration {
			cpu.TraceFetch = hook
			defer func() { cpu.TraceFetch = nil }()
			if cpu.Reset() != nil {
				return 0
			}
			t0 := time.Now()
			_, _ = cpu.Run(stepBudget) // the passes check this run's result
			return time.Since(t0)
		}
		var withCache, without time.Duration
		var c *cache.Cache
		for i := 0; i < 3; i++ {
			var err error
			if c, err = newCache(q.size); err != nil {
				return
			}
			if d := timed(c.Access); i == 0 || d < withCache {
				withCache = d
			}
			if d := timed(noop); i == 0 || d < without {
				without = d
			}
		}
		delta += withCache - without
		accesses += c.Stats.Accesses
	}
	rep["cache.self_ns_per_access"] = value{div(float64(delta), float64(accesses)), len(x.probes)}
}

func (x *icache) work() int64 { return x.steps }

func (x *icache) ratio() float64 { return geomean(x.ratios) }
