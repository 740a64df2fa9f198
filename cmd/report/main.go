// Command report regenerates the complete reproduction in one shot and
// emits a self-contained Markdown report: every table, every figure, the
// latency sweep, the modern-footprint study, and all ablations, each under
// its own heading with the machine configuration recorded. Useful for
// archiving one artifact per run.
//
// Usage:
//
//	report -insts 2000000 -o report.md
//	report -quick -o -            # small budget, stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"specfetch/internal/experiments"
	"specfetch/internal/texttable"
)

func main() {
	insts := flag.Int64("insts", 2_000_000, "instructions to simulate per benchmark")
	quickFlag := flag.Bool("quick", false, "small-budget run (200k instructions)")
	out := flag.String("o", "-", "output path ('-' = stdout)")
	flag.Parse()

	opt := experiments.Options{Insts: *insts}
	if *quickFlag {
		opt.Insts = 200_000
	}

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
	pf("# specfetch reproduction report\n\n")
	pf("Lee, Baer, Calder, Grunwald: *Instruction Cache Fetch Policies for\nSpeculative Execution*, ISCA 1995.\n\n")
	pf("- instruction budget: %d per benchmark\n", opt.Insts)
	pf("- generated: %s\n\n", time.Now().Format(time.RFC3339))

	section := func(title string, render func() (fmt.Stringer, error)) {
		pf("## %s\n\n```\n", title)
		art, err := render()
		if err != nil {
			pf("ERROR: %v\n", err)
		} else {
			pf("%s", art.String())
		}
		pf("```\n\n")
	}

	tables := []struct {
		title string
		fn    func(experiments.Options) (*texttable.Table, error)
	}{
		{"Table 2 — benchmark inventory", experiments.Table2},
		{"Table 3 — cache and branch characteristics", experiments.Table3},
		{"Table 4 — miss classification", experiments.Table4},
		{"Table 5 — speculation depth", experiments.Table5},
		{"Table 6 — cache size", experiments.Table6},
		{"Table 7 — prefetch memory traffic", experiments.Table7},
	}
	for _, tb := range tables {
		tb := tb
		section(tb.title, func() (fmt.Stringer, error) { return tb.fn(opt) })
	}

	figures := []struct {
		title string
		fn    func(experiments.Options) (*texttable.StackedBars, error)
	}{
		{"Figure 1 — baseline penalty breakdown", experiments.Figure1},
		{"Figure 2 — long miss latency", experiments.Figure2},
		{"Figure 3 — next-line prefetching", experiments.Figure3},
		{"Figure 4 — prefetching at long latency", experiments.Figure4},
	}
	for _, fg := range figures {
		fg := fg
		section(fg.title, func() (fmt.Stringer, error) { return fg.fn(opt) })
	}

	section("Latency sweep and crossover", func() (fmt.Stringer, error) {
		return experiments.LatencySweep(opt, nil)
	})
	section("Modern-footprint study", func() (fmt.Stringer, error) {
		return experiments.ModernStudy(opt)
	})

	ablations := experiments.Ablations()
	for _, name := range experiments.AblationNames() {
		name := name
		section("Ablation — "+name, func() (fmt.Stringer, error) {
			return ablations[name](opt)
		})
	}

	pf("---\nreport generated in %s\n", time.Since(start).Round(time.Second))
	fail(closeOut())
}

func fail(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "report: %v\n", err)
		os.Exit(1)
	}
}
