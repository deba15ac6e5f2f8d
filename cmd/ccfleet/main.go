// Command ccfleet manages shared (fleet-wide/ROM) dictionaries: build one
// over several programs, then compress each program against it.
//
// Usage:
//
//	ccfleet build -scheme baseline -o fleet.ppd a.ppx b.ppx c.ppx
//	ccfleet compress -dict fleet.ppd a.ppx b.ppx c.ppx
//	ccfleet compress -dict fleet.ppd -parallel 8 *.ppx
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/codeword"
	"repro/internal/core"
	"repro/internal/dictionary"
	"repro/internal/objfile"
	"repro/internal/program"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		build(os.Args[2:])
	case "compress":
		compress(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ccfleet build    [-scheme S] [-entrylen N] -o fleet.ppd prog.ppx...
  ccfleet compress [-scheme S] [-parallel N] -dict fleet.ppd [-o out.ppz] prog.ppx...
	(-o only with a single input; multiple inputs write <prog>.ppz each)`)
	os.Exit(2)
}

func readProgram(path string) *program.Program {
	p, err := loadProgram(path)
	if err != nil {
		fatal(err)
	}
	return p
}

func loadProgram(path string) (*program.Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := objfile.ReadProgram(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func build(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	schemeName := fs.String("scheme", "baseline", "codeword scheme: "+strings.Join(cli.SchemeNames(), ", "))
	entryLen := fs.Int("entrylen", 4, "maximum instructions per entry")
	out := fs.String("o", "fleet.ppd", "output dictionary path")
	fs.Parse(args)
	if fs.NArg() == 0 {
		usage()
	}
	scheme, err := cli.ParseScheme(*schemeName)
	if err != nil {
		fatal(err)
	}
	var progs []*program.Program
	for _, path := range fs.Args() {
		progs = append(progs, readProgram(path))
	}
	entries, err := core.BuildSharedDictionary(progs, core.Options{Scheme: scheme, MaxEntryLen: *entryLen})
	if err != nil {
		fatal(err)
	}
	g, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := objfile.WriteDictionary(g, entries); err != nil {
		fatal(err)
	}
	if err := g.Close(); err != nil {
		fatal(err)
	}
	bytes := codeword.DictBytes(lens(entries))
	fmt.Printf("shared dictionary over %d programs: %d entries, %d bytes -> %s\n",
		len(progs), len(entries), bytes, *out)
}

func compress(args []string) {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	schemeName := fs.String("scheme", "baseline", "codeword scheme: "+strings.Join(cli.SchemeNames(), ", "))
	dictPath := fs.String("dict", "", "shared dictionary (.ppd)")
	out := fs.String("o", "", "output .ppz (single input only; default input with .ppz suffix)")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0), "bound on concurrent compressions")
	fs.Parse(args)
	if fs.NArg() == 0 || *dictPath == "" {
		usage()
	}
	if *out != "" && fs.NArg() > 1 {
		usage()
	}
	scheme, err := cli.ParseScheme(*schemeName)
	if err != nil {
		fatal(err)
	}
	df, err := os.Open(*dictPath)
	if err != nil {
		fatal(err)
	}
	entries, err := objfile.ReadDictionary(df)
	df.Close()
	if err != nil {
		fatal(err)
	}

	// Fan the fleet out on the bench engine's bounded pool; result lines
	// come back in input order regardless of completion order.
	inputs := fs.Args()
	lines := make([]string, len(inputs))
	err = bench.ParallelEach(context.Background(), *parallel, len(inputs), func(i int) error {
		in := inputs[i]
		p, err := loadProgram(in)
		if err != nil {
			return err
		}
		img, err := core.CompressFixed(p, entries, core.Options{Scheme: scheme})
		if err != nil {
			return fmt.Errorf("%s: %w", in, err)
		}
		if err := core.Verify(p, img); err != nil {
			return fmt.Errorf("%s: verification failed: %w", in, err)
		}
		dst := *out
		if dst == "" {
			dst = strings.TrimSuffix(in, ".ppx") + ".ppz"
		}
		if err := writeImage(dst, img); err != nil {
			return err
		}
		lines[i] = fmt.Sprintf("%s: stream %d bytes (dictionary shared, %d entries) ratio-with-shared-dict %.3f -> %s",
			p.Name, img.StreamBytes, len(img.Entries),
			float64(img.StreamBytes)/float64(img.OriginalBytes), dst)
		return nil
	})
	for _, line := range lines {
		if line != "" {
			fmt.Println(line)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func writeImage(dst string, img *core.Image) error {
	g, err := os.Create(dst)
	if err != nil {
		return err
	}
	if err := objfile.WriteImage(g, img); err != nil {
		g.Close()
		return err
	}
	return g.Close()
}

func lens(entries []dictionary.Entry) []int {
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = len(e.Words)
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccfleet:", err)
	os.Exit(1)
}
