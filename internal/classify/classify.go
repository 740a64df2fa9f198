// Package classify reproduces the paper's Table 4: it runs the Oracle and
// Optimistic policies over the same trace and partitions correct-path
// I-cache misses into the four categories the paper defines, by matching up
// the two runs' miss bitmaps (core.Result.MissBits). The structural
// reference stream is policy independent for a given trace, so bit i of
// both bitmaps describes the same reference.
//
// ArmConfig sets up one run's config and Categorize matches two finished
// runs, so a sweep runs the arms as ordinary cells.
package classify

import (
	"fmt"
	"math/bits"

	"specfetch/internal/core"
)

// Categories holds Table 4's columns. The four miss classes are per
// correct-path instruction, as percentages (matching the paper's units):
//
//   - BothMiss: misses in both Oracle and Optimistic.
//   - SpecPollute: misses only in Optimistic on the correct path — pollution
//     caused by wrong-path fills.
//   - SpecPrefetch: misses only in Oracle — prevented in Optimistic by the
//     prefetching effect of wrong-path fills.
//   - WrongPath: misses Optimistic takes on wrong paths (their main cost is
//     memory bandwidth).
type Categories struct {
	BothMiss     float64
	SpecPollute  float64
	SpecPrefetch float64
	WrongPath    float64
	// TrafficRatio is total Optimistic line fetches over Oracle's.
	TrafficRatio float64
	// Insts is the correct-path instruction count both runs retired.
	Insts int64
}

// ArmConfig returns cfg set up as the classification run under pol: without
// prefetching (Table 4 is measured without it) and recording its miss
// bitmap.
func ArmConfig(cfg core.Config, pol core.Policy) core.Config {
	cfg.Policy = pol
	cfg.NextLinePrefetch = false
	cfg.RecordMisses = true
	return cfg
}

// Categorize partitions the correct-path misses of a finished Oracle run
// and Optimistic run, each made with an ArmConfig. A reference that missed
// in both runs is a both-miss; the Oracle's other misses were prevented by
// wrong-path prefetching, and the Optimistic run's others were caused by
// wrong-path pollution.
func Categorize(oracle, opt core.Result) (Categories, error) {
	if oracle.Insts != opt.Insts {
		return Categories{}, fmt.Errorf("classify: instruction counts diverge: oracle %d, optimistic %d",
			oracle.Insts, opt.Insts)
	}
	if oracle.RightPathAccesses != opt.RightPathAccesses {
		return Categories{}, fmt.Errorf("classify: reference streams diverge: oracle %d refs, optimistic %d",
			oracle.RightPathAccesses, opt.RightPathAccesses)
	}
	for _, r := range []core.Result{oracle, opt} {
		if !r.MissBitsValid() {
			return Categories{}, fmt.Errorf("classify: %v run carries no valid miss bitmap", r.Policy)
		}
	}

	var both int64
	for i := range min(len(oracle.MissBits), len(opt.MissBits)) {
		both += int64(bits.OnesCount64(oracle.MissBits[i] & opt.MissBits[i]))
	}

	insts := oracle.Insts
	pct := func(n int64) float64 {
		if insts == 0 {
			return 0
		}
		return 100 * float64(n) / float64(insts)
	}
	cat := Categories{
		BothMiss:     pct(both),
		SpecPollute:  pct(opt.RightPathMisses - both),
		SpecPrefetch: pct(oracle.RightPathMisses - both),
		WrongPath:    pct(int64(opt.Traffic.WrongPathFills)),
		Insts:        insts,
	}
	if oracle.Traffic.Total() > 0 {
		cat.TrafficRatio = float64(opt.Traffic.Total()) / float64(oracle.Traffic.Total())
	}
	return cat, nil
}
