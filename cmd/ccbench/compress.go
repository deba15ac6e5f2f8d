package main

import (
	"bytes"

	"repro/internal/codec"
	_ "repro/internal/codecs" // populate the codec registry
	"repro/internal/objfile"
	"repro/internal/program"
	"repro/internal/trace"
)

// codecNames lists the registered codecs in method-byte order.
func codecNames() []string { return codec.Names() }

// compress puts every program through every registered codec, the shape of
// a toolchain that compresses each fresh program once per configuration.
type compress struct {
	progs  []*program.Program
	codecs []codec.Codec
	ratios []float64 // per (program, codec), filled by the first pass
	buf    bytes.Buffer
}

func setupCompress(e *env) (inputs, error) {
	progs, err := programs(e, 1)
	if err != nil {
		return nil, err
	}
	cs := codec.Codecs()
	return &compress{progs: progs, codecs: cs, ratios: make([]float64, len(progs)*len(cs))}, nil
}

func (c *compress) pass(m *meter) {
	for i, p := range c.progs {
		for j, cd := range c.codecs {
			sp := m.op()
			if r, ok := c.one(m, sp, p, cd); ok {
				c.ratios[i*len(c.codecs)+j] = r
			}
			sp.End()
		}
	}
}

// one compresses, verifies, serializes and reopens one program and
// returns the image's ratio.
func (c *compress) one(m *meter, sp *trace.Span, p *program.Program, cd codec.Codec) (float64, bool) {
	name := cd.Name()
	csp := sp.Child("codec." + name + ".compress")
	img, err := cd.Compress(p, codec.Options{Stats: m.stats, Trace: csp})
	csp.End()
	if err != nil {
		m.fail("%s/%s: compress: %v", p.Name, name, err)
		return 0, false
	}
	vsp := sp.Child("codec." + name + ".verify")
	err = cd.Verify(p, img)
	vsp.End()
	if err != nil {
		m.fail("%s/%s: verify: %v", p.Name, name, err)
		return 0, false
	}
	back, ok := roundTrip(m, sp, &c.buf, img, p.Name+"/"+name)
	if !ok {
		return 0, false
	}
	if back.Method() != img.Method() || back.CompressedBytes() != img.CompressedBytes() {
		m.fail("%s/%s: reopened image is %d bytes of method %d, want %d of %d",
			p.Name, name, back.CompressedBytes(), back.Method(), img.CompressedBytes(), img.Method())
		return 0, false
	}
	return img.Ratio(), true
}

// roundTrip writes an image into buf and opens it again.
func roundTrip(m *meter, sp *trace.Span, buf *bytes.Buffer, img codec.Image, label string) (codec.Image, bool) {
	buf.Reset()
	wsp := sp.Child("objfile.write")
	err := objfile.WriteImage(buf, img)
	wsp.End()
	if err != nil {
		m.fail("%s: objfile write: %v", label, err)
		return nil, false
	}
	m.tally.addImage(buf.Len())
	osp := sp.Child("objfile.open")
	back, err := objfile.OpenImage(bytes.NewReader(buf.Bytes()))
	osp.End()
	if err != nil {
		m.fail("%s: objfile open: %v", label, err)
		return nil, false
	}
	return back, true
}

func (c *compress) work() int64 { return words(c.progs) * int64(len(c.codecs)) }

func (c *compress) ratio() float64 { return geomean(c.ratios) }
