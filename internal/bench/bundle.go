package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/obs"
)

// bundleStepBudget is the execution budget of a bundle collection run,
// matching the profiled-run budget used everywhere else in the package.
const bundleStepBudget = 200_000_000

// CollectBundle runs one benchmark under one registered codec with a full
// collector attached and returns the assembled run bundle: stats and the
// size audit always; execution profile, symbolized guest profile and
// folded stacks when the codec's images execute on the simulator (the
// size-only comparators contribute their compression telemetry and audit
// only). The benchmark's dictionary-shape options matter only to schemed
// codecs; the codec's own scheme always overrides opt.Scheme.
func CollectBundle(c *Corpus, name, enc string, opt core.Options) (*obs.Bundle, error) {
	cd, err := codec.ByName(enc)
	if err != nil {
		return nil, err
	}
	id := obs.Identity{
		Bench:  name,
		Codec:  strings.ToLower(cd.Name()),
		Method: uint8(cd.Method()),
	}

	var img *core.Image
	if sc, ok := cd.(codec.Schemed); ok {
		o := opt
		o.Scheme = sc.Scheme()
		if o.MaxEntryLen == 0 {
			o.MaxEntryLen = 4
		}
		id.OptionsHash = o.Fingerprint()
		if img, err = c.Image(name, o); err != nil {
			return nil, err
		}
	}
	col := obs.NewCollector(id)

	// The size audit: dictionary images reconstruct it from their marks;
	// other codecs compress once with a live emitter.
	var cpu *machineCPU
	var sym *guestprof.SymTab
	if img != nil {
		sa, err := img.SizeAudit()
		if err != nil {
			return nil, err
		}
		col.SetAudit(sa)
		if cpu, err = core.NewMachine(img); err != nil {
			return nil, err
		}
		if sym, err = img.GuestSymTab(); err != nil {
			return nil, err
		}
	} else {
		p, err := c.Program(name)
		if err != nil {
			return nil, err
		}
		sa, err := cd.Audit(p, codec.Options{})
		if err != nil {
			return nil, err
		}
		col.SetAudit(sa)
		ci, err := cd.Compress(p, codec.Options{Stats: col.Recorder()})
		if err != nil {
			return nil, err
		}
		ex, ok := ci.(codec.Executable)
		if !ok {
			// Size comparator: the bundle carries compression stats and the
			// audit, nothing execution-shaped.
			return col.Bundle()
		}
		if cpu, err = ex.NewMachine(); err != nil {
			return nil, err
		}
		// Executable comparators run at native addresses, so the original
		// program's symbol table attributes their cycles.
		sym = guestprof.NewProgramSymTab(p)
	}

	cpu.Record = col.Recorder()
	gp := guestprof.New(sym)
	gp.Attach(cpu)
	if _, err := cpu.Run(bundleStepBudget); err != nil {
		return nil, fmt.Errorf("bench: bundle run of %s/%s: %w", name, enc, err)
	}

	col.SetProfile(core.CollectRunProfile(img, gp.Heat(), nil))
	guest := gp.Profile(name)
	var sb strings.Builder
	if err := gp.WriteFolded(&sb); err != nil {
		return nil, err
	}
	col.SetGuest(guest, sb.String())
	return col.Bundle()
}

// WriteBundles collects and writes one bundle per (benchmark, registered
// codec) pair into dir/<bench>.<codec>/. The timestamp is stamped verbatim
// into each bundle's identity; pass "" for reproducible output.
func WriteBundles(c *Corpus, dir string, opt core.Options, timestamp string) error {
	encs := AuditEncodings
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	names := c.Names()
	return c.each(len(names)*len(encs), func(k int) error {
		name, enc := names[k/len(encs)], encs[k%len(encs)]
		b, err := CollectBundle(c, name, enc, opt)
		if err != nil {
			return err
		}
		b.Identity.Timestamp = timestamp
		return obs.Write(filepath.Join(dir, name+"."+enc), b)
	})
}
