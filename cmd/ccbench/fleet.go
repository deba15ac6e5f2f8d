package main

import (
	"bytes"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/program"
	"repro/internal/trace"
)

// fleet builds one ROM dictionary shared by every program, then compresses
// each program against it: the dictionary layer on one input several
// times larger than any single program.
type fleet struct {
	progs  []*program.Program
	ratios []float64
	buf    bytes.Buffer
}

var fleetOpts = core.Options{Scheme: codeword.Baseline, MaxEntryLen: 4}

func setupFleet(e *env) (inputs, error) {
	progs, err := programs(e, 1)
	if err != nil {
		return nil, err
	}
	return &fleet{progs: progs, ratios: make([]float64, len(progs))}, nil
}

func (f *fleet) pass(m *meter) {
	sp := m.op()
	bsp := sp.Child("core.shared_build")
	entries, err := core.BuildSharedDictionary(f.progs, fleetOpts)
	bsp.End()
	sp.End()
	if err != nil {
		m.fail("shared dictionary: %v", err)
		return
	}
	lens := make([]int, len(entries))
	for i, e := range entries {
		lens[i] = len(e.Words)
	}
	// The shared dictionary is charged once, an equal share per program.
	share := float64(codeword.DictBytes(lens)) / float64(len(f.progs))
	for i, p := range f.progs {
		sp := m.op()
		if img, ok := f.one(m, sp, p, entries); ok {
			f.ratios[i] = (float64(img.StreamBytes) + share) / float64(img.OriginalBytes)
		}
		sp.End()
	}
}

// one compresses one program against the shared dictionary, verifies it
// and round-trips it through objfile.
func (f *fleet) one(m *meter, sp *trace.Span, p *program.Program, entries []dictionary.Entry) (*core.Image, bool) {
	csp := sp.Child("program.clone")
	q := p.Clone()
	csp.End()
	fsp := sp.Child("core.compress_fixed")
	img, err := core.CompressFixed(q, entries, fleetOpts)
	fsp.End()
	if err != nil {
		m.fail("%s: compress against the shared dictionary: %v", p.Name, err)
		return nil, false
	}
	vsp := sp.Child("core.verify")
	err = core.Verify(p, img)
	vsp.End()
	if err != nil {
		m.fail("%s: verify: %v", p.Name, err)
		return nil, false
	}
	back, ok := roundTrip(m, sp, &f.buf, img, p.Name)
	if !ok {
		return nil, false
	}
	if back.CompressedBytes() != img.CompressedBytes() {
		m.fail("%s: reopened image is %d bytes, want %d", p.Name, back.CompressedBytes(), img.CompressedBytes())
		return nil, false
	}
	return img, true
}

func (f *fleet) work() int64 { return words(f.progs) }

func (f *fleet) ratio() float64 { return geomean(f.ratios) }
