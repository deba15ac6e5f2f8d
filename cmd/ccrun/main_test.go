package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/guestprof"
	"repro/internal/objfile"
	"repro/internal/obs"
	"repro/internal/synth"
)

// buildCCRun compiles the ccrun binary once per test run.
func buildCCRun(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ccrun")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ccrun: %v\n%s", err, out)
	}
	return bin
}

// writeImage compresses a synth benchmark under the nibble scheme and
// serializes it as a .ppz fixture.
func writeImage(t *testing.T, dir, bench string) string {
	t.Helper()
	p, err := synth.Generate(bench)
	if err != nil {
		t.Fatal(err)
	}
	img, err := core.Compress(p, core.Options{Scheme: codeword.Nibble, MaxEntryLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, bench+".ppz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := objfile.WriteImage(f, img); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceLines pins -trace: exactly N disassembled lines, one per
// executed instruction, ahead of the run summary.
func TestTraceLines(t *testing.T) {
	bin := buildCCRun(t)
	ppz := writeImage(t, t.TempDir(), "compress")
	cmd := exec.Command(bin, "-trace", "5", ppz)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("ccrun -trace: %v\n%s", err, stderr.String())
	}
	traced := regexp.MustCompile(`(?m)^  [0-9a-f]{8}: \S`).FindAllString(stderr.String(), -1)
	if len(traced) != 5 {
		t.Errorf("-trace 5 printed %d instruction lines:\n%s", len(traced), stderr.String())
	}
}

// TestSampledBundleMatchesExact runs the same image into an exact bundle
// and a -sampledprof bundle. The run never leaves the fast path, so the
// sampled profiler sees every step: the heat map and the flat per-function
// counts must agree exactly.
func TestSampledBundleMatchesExact(t *testing.T) {
	bin := buildCCRun(t)
	dir := t.TempDir()
	ppz := writeImage(t, dir, "compress")
	open := func(name string, args ...string) *obs.Bundle {
		t.Helper()
		bdir := filepath.Join(dir, name)
		args = append(args, "-bundle", bdir, ppz)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("ccrun %v: %v\n%s", args, err, out)
		}
		b, err := obs.Open(bdir)
		if err != nil {
			t.Fatal(err)
		}
		if b.Profile == nil || b.Guest == nil {
			t.Fatalf("ccrun %v: bundle lacks profile or guest section", args)
		}
		return b
	}
	exact, sampled := open("exact"), open("sampled", "-sampledprof")
	if exact.Identity.Bench != "compress" || exact.Identity.Codec != "nibble" || exact.Identity.Method != 2 {
		t.Errorf("bundle identity = %+v", exact.Identity)
	}
	if exact.GuestFolded == "" || sampled.GuestFolded != "" {
		t.Errorf("folded stacks: exact %d bytes, sampled %d bytes; want exact only",
			len(exact.GuestFolded), len(sampled.GuestFolded))
	}
	if cov := sampled.Profile.Fastpath.Coverage; cov != 1 {
		t.Fatalf("sampled run coverage %v, want 1", cov)
	}
	if len(exact.Profile.HotEntries) == 0 {
		t.Fatal("exact bundle has no hot entries")
	}
	if !reflect.DeepEqual(sampled.Profile.HotEntries, exact.Profile.HotEntries) {
		t.Errorf("hot_entries differ:\n sampled %+v\n   exact %+v", sampled.Profile.HotEntries, exact.Profile.HotEntries)
	}
	flat := func(p *guestprof.Profile) map[string]guestprof.Counts {
		m := map[string]guestprof.Counts{}
		for _, f := range p.Funcs {
			if f.Flat != (guestprof.Counts{}) {
				m[f.Name] = f.Flat
			}
		}
		return m
	}
	if got, want := flat(sampled.Guest), flat(exact.Guest); !reflect.DeepEqual(got, want) {
		t.Errorf("flat guest counts differ:\n sampled %+v\n   exact %+v", got, want)
	}
}

// TestSampledProfRejects pins the combinations -sampledprof refuses: the
// per-step hook that would force the instrumented path, and running
// without a bundle to fill. -cache is accepted: the fetch journal keeps the
// cached run fused, and its cache section equals the exact bundle's.
func TestSampledProfRejects(t *testing.T) {
	bin := buildCCRun(t)
	dir := t.TempDir()
	ppz := writeImage(t, dir, "compress")
	cached := func(name string, args ...string) *obs.Bundle {
		t.Helper()
		bdir := filepath.Join(dir, name)
		args = append(args, "-cache", "1024", "-bundle", bdir, ppz)
		if out, err := exec.Command(bin, args...).CombinedOutput(); err != nil {
			t.Fatalf("ccrun %v: %v\n%s", args, err, out)
		}
		b, err := obs.Open(bdir)
		if err != nil {
			t.Fatal(err)
		}
		if b.Profile == nil || b.Profile.Cache == nil {
			t.Fatalf("ccrun %v: bundle lacks a cache section", args)
		}
		return b
	}
	exact, sampled := cached("exact"), cached("sampled", "-sampledprof")
	if cov := sampled.Profile.Fastpath.Coverage; cov != 1 {
		t.Errorf("sampled cached run coverage %v, want 1", cov)
	}
	if exact.Profile.Cache.Accesses == 0 || exact.Profile.Cache.Misses == 0 {
		t.Errorf("exact cache section is empty: %+v", exact.Profile.Cache)
	}
	if !reflect.DeepEqual(sampled.Profile.Cache, exact.Profile.Cache) {
		t.Errorf("cache sections differ:\n sampled %+v\n   exact %+v", sampled.Profile.Cache, exact.Profile.Cache)
	}

	bdir := filepath.Join(dir, "bundle")
	for _, args := range [][]string{
		{"-sampledprof", "-trace", "3", "-bundle", bdir},
		{"-sampledprof"},
	} {
		out, err := exec.Command(bin, append(args, ppz)...).CombinedOutput()
		if err == nil {
			t.Errorf("ccrun %v succeeded, want a non-zero exit:\n%s", args, out)
		}
	}
	if _, err := os.Stat(bdir); !os.IsNotExist(err) {
		t.Errorf("a rejected run wrote %s", bdir)
	}
}

// TestBundleNativeProgram pins the .ppx path: bundles work for native runs
// too, with codec "native" and no audit section.
func TestBundleNativeProgram(t *testing.T) {
	bin := buildCCRun(t)
	dir := t.TempDir()
	p, err := synth.Generate("compress")
	if err != nil {
		t.Fatal(err)
	}
	ppx := filepath.Join(dir, "compress.ppx")
	f, err := os.Create(ppx)
	if err != nil {
		t.Fatal(err)
	}
	if err := objfile.WriteProgram(f, p); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	bundleDir := filepath.Join(dir, "bundle")
	cmd := exec.Command(bin, "-bundle", bundleDir, ppx)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("ccrun -bundle on .ppx: %v\n%s", err, out)
	}
	b, err := obs.Open(bundleDir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Identity.Codec != "native" || b.Identity.Bench != "compress" {
		t.Errorf("native bundle identity = %+v", b.Identity)
	}
	if b.Profile == nil || b.Guest == nil || b.GuestFolded == "" {
		t.Error("native bundle missing profile/guest sections")
	}
	if b.Audit != nil {
		t.Error("native bundle should carry no size audit")
	}
}
