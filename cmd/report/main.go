// Command report regenerates the complete reproduction in one shot and
// emits a self-contained Markdown report: every artifact of the catalogue
// (the paper's tables and figures, the latency sweep, the modern-footprint
// study and every ablation), each under its own heading with the machine
// configuration recorded. Useful for archiving one artifact per run. The
// report holds no timestamps, so the same budget regenerates the same
// bytes; the generation time and wall time go to stderr. A builder that
// fails stops the report with exit status 1 and writes no report.
//
// Usage:
//
//	report -insts 2000000 -o report.md
//	report -insts 200000 -o -     # small budget, stdout
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"specfetch/internal/experiments"
)

func main() {
	insts := flag.Int64("insts", 2_000_000, "instructions to simulate per benchmark")
	out := flag.String("o", "-", "output path ('-' = stdout)")
	flag.Parse()

	opt := experiments.Options{Insts: *insts}

	// The whole document is built before any output is opened, so a failed
	// run writes no partial report and leaves an existing -o file as it was.
	var doc bytes.Buffer
	pf := func(format string, args ...any) {
		_, _ = fmt.Fprintf(&doc, format, args...) // a bytes.Buffer write cannot fail
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
		fail(art.Render(&doc))
		pf("```\n\n")
	}

	if *out == "-" {
		_, err := os.Stdout.Write(doc.Bytes())
		fail(err)
	} else {
		fail(os.WriteFile(*out, doc.Bytes(), 0o666))
	}
	fmt.Fprintf(os.Stderr, "report: generated in %s\n", time.Since(start).Round(time.Second))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
}
