// Command report regenerates the complete reproduction in one shot and
// emits a self-contained Markdown report: every artifact of the catalogue
// (the paper's tables and figures, the latency sweep, the modern-footprint
// study and every ablation), each under its own heading with the machine
// configuration recorded. Useful for archiving one artifact per run. The
// report holds no timestamps, so the same budget regenerates the same
// bytes; the generation time and wall time go to stderr. A builder that
// fails stops the report with exit status 1.
//
// Usage:
//
//	report -insts 2000000 -o report.md
//	report -insts 200000 -o -     # small budget, stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"specfetch/internal/experiments"
)

func main() {
	insts := flag.Int64("insts", 2_000_000, "instructions to simulate per benchmark")
	out := flag.String("o", "-", "output path ('-' = stdout)")
	flag.Parse()

	opt := experiments.Options{Insts: *insts}

	var w io.Writer = os.Stdout
	closeOut := func() error { return nil }
	if *out != "-" {
		f, err := os.Create(*out)
		fail(err)
		closeOut = f.Close
		w = f
	}

	// pf is a checked Fprintf: a write failure (full disk, broken pipe) must
	// not yield a silently truncated report.
	pf := func(format string, args ...any) {
		_, err := fmt.Fprintf(w, format, args...)
		fail(err)
	}

	start := time.Now()
	fmt.Fprintf(os.Stderr, "report: generated %s\n", start.Format(time.RFC3339))
	pf("# specfetch reproduction report\n\n")
	pf("Lee, Baer, Calder, Grunwald: *Instruction Cache Fetch Policies for\nSpeculative Execution*, ISCA 1995.\n\n")
	pf("- instruction budget: %d per benchmark\n\n", opt.Insts)

	for _, a := range experiments.Catalogue() {
		art, err := a.Build(opt)
		if err != nil {
			fail(fmt.Errorf("%s: %w", a.Name, err))
		}
		pf("## %s\n\n```\n", a.Heading)
		fail(art.Render(w))
		pf("```\n\n")
	}

	fail(closeOut())
	fmt.Fprintf(os.Stderr, "report: generated in %s\n", time.Since(start).Round(time.Second))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
}
