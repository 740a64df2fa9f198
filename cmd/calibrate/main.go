// Command calibrate reports how closely the synthetic benchmark profiles
// match the paper's Table 2/3 characteristics. It is the tool used to tune
// internal/synth/profiles.go; EXPERIMENTS.md records its final output.
//
// Usage:
//
//	calibrate [-insts N] [-bench name]
package main

import (
	"flag"
	"fmt"
	"os"

	"specfetch/internal/experiments"
)

func main() {
	insts := flag.Int64("insts", 2_000_000, "instructions to simulate per benchmark")
	bench := flag.String("bench", "", "only this benchmark (default: all)")
	flag.Parse()

	opt := experiments.Options{Insts: *insts}
	if *bench != "" {
		opt.Benchmarks = []string{*bench}
	}
	rows, err := experiments.Table3Data(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: %v\n", err)
		os.Exit(1)
	}
	pf("%-8s %-7s | %7s %7s %5s | %7s %7s | %7s %7s | %7s %7s | %7s %7s | %7s %7s | %8s\n",
		"bench", "lang", "br%", "paper", "cnd%", "m8K", "paper", "m32K", "paper",
		"phtB1", "paper", "phtB4", "paper", "btbMF", "paper", "static")
	for _, r := range rows {
		t := r.Paper
		pf("%-8s %-7s | %7.1f %7.1f %5.1f | %7.2f %7.2f | %7.2f %7.2f | %7.2f %7.2f | %7.2f %7.2f | %7.2f %7.2f | %8d\n",
			r.Name, r.Lang, r.BranchPct, t.BranchPct, r.CondPct, r.Miss8K, t.Miss8K, r.Miss32K, t.Miss32K,
			r.PHTISPIB1, t.PHTISPIB1, r.PHTISPIB4, t.PHTISPIB4,
			r.BTBMisfetchISPI, t.BTBMisfetchISPI, r.StaticInsts)
	}
}

// pf is a checked Printf: a broken stdout (closed pipe) is a hard error, not
// a silent truncation of the calibration table.
func pf(format string, args ...any) {
	if _, err := fmt.Printf(format, args...); err != nil {
		fmt.Fprintf(os.Stderr, "calibrate: writing output: %v\n", err)
		os.Exit(1)
	}
}
