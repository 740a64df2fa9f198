// Command intervals renders the oracle-selector report from a window-series
// JSONL file — the wire form written by `paperbench -oracle -intervals-out`
// or assembled from distsweep job results with capture_windows set. It
// regroups the per-policy window series by benchmark and miss penalty,
// recomputes the per-window winners, and prints the oracle-vs-static
// crossover table plus the per-window winner map. Reading the JSONL back
// renders the exact bytes the producing sweep rendered.
//
// Usage:
//
//	intervals intervals.jsonl
//	paperbench -oracle -quiet -intervals-out /dev/stdout >/dev/null | intervals
//	intervals -csv intervals.jsonl
//	intervals -winners-only intervals.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"specfetch/internal/experiments"
)

func main() {
	csv := flag.Bool("csv", false, "emit the crossover table as CSV instead of aligned text")
	winnersOnly := flag.Bool("winners-only", false, "print only the per-window winner map")
	flag.Parse()
	if *csv && *winnersOnly {
		// -winners-only skips the crossover table, the one thing -csv formats.
		fmt.Fprintln(os.Stderr, "intervals: -csv is only read without -winners-only")
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	switch flag.NArg() {
	case 0:
		// read the JSONL from stdin
	case 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer func() { _ = f.Close() }() // read side; nothing to lose on close
		in = f
	default:
		fmt.Fprintln(os.Stderr, "usage: intervals [-csv | -winners-only] [file.jsonl]")
		os.Exit(2)
	}

	d, err := experiments.ReadOracleJSONL(in)
	if err != nil {
		fatal(err)
	}
	if !*winnersOnly {
		t := d.CrossoverTable()
		if *csv {
			err = t.RenderCSV(os.Stdout)
		} else {
			err = t.Render(os.Stdout)
		}
		if err != nil {
			fatal(err)
		}
		if _, err := fmt.Println(); err != nil {
			fatal(err)
		}
	}
	if _, err := fmt.Print(d.WinnerMap()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "intervals: %v\n", err)
	os.Exit(1)
}
