// Command simlint runs specfetch's project-specific static analyzers over
// the module: determinism (no wall clock / global rand / map-ordered
// output in simulator packages), probeguard (nil-guarded probe hooks),
// enumswitch (exhaustive switches over module enums), errcheck (no
// discarded errors in codecs and CLI I/O), sweeplint (the distributed-sweep
// layer reports through registry counters or its injected stderr writer,
// never ad-hoc stderr prints or the global log package), and unitcheck
// (cycle and issue-slot quantities never mix or revert to raw integers
// without an explicit conversion). It is a hard-fail CI gate.
//
// Packages are loaded once, under the default build environment: a file
// gated behind a //go:build constraint is linted only when the default
// environment builds it (the !race half of a race test pair, not the race
// half).
//
// Usage:
//
//	simlint ./...                      # whole module (testdata skipped)
//	simlint ./internal/core            # one package
//	simlint -only determinism ./...    # a subset of analyzers
//	simlint -list                      # describe the analyzers
//
// Findings print one per line as file:line:col: [analyzer] message.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"specfetch/internal/analysis"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer subset (default: all)")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			emit(fmt.Sprintf("%-12s %s", a.Name, a.Doc))
		}
		return
	}

	analyzers := analysis.All()
	if *only != "" {
		var err error
		analyzers, err = analysis.ByName(*only)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}

	pkgs, err := analysis.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	loadOK := true
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", pkg.PkgPath, terr)
			loadOK = false
		}
	}
	if !loadOK {
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, analyzers)
	for _, d := range diags {
		emit(d.String(cwd))
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// emit writes one line to stdout, exiting non-zero when stdout is broken
// (a truncated findings list must not read as a clean run).
func emit(line string) {
	if _, err := fmt.Println(line); err != nil {
		fmt.Fprintf(os.Stderr, "simlint: stdout: %v\n", err)
		os.Exit(2)
	}
}
