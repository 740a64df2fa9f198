package experiments

import (
	"fmt"
	"slices"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/synth"
	"specfetch/internal/texttable"
)

// ModernStudy asks whether the paper's 1995 conclusions survive
// datacenter-scale instruction footprints: it runs the five policies over
// the modern workload stand-ins (web/db/search, footprints ~10-20× SPEC92's)
// across cache sizes, at both the low and high miss penalty: cache x
// penalty x policy cells per bench.
func ModernStudy(opt Options) (*texttable.Table, error) {
	profiles := synth.ModernProfiles()
	benches, err := mapCells(opt, len(profiles), func(_, i int) (*synth.Bench, error) {
		return benchFor(profiles[i])
	})
	if err != nil {
		return nil, err
	}

	cacheSizes := []int{8 * 1024, 32 * 1024, 64 * 1024}
	penalties := []int{5, 20}
	pols := core.Policies()

	rows, err := sweep(opt, benches, func(_ int, b *synth.Bench) []runCell {
		var cells []runCell
		for _, cs := range cacheSizes {
			for _, pen := range penalties {
				for _, pol := range pols {
					cfg := baseConfig(pol)
					cfg.ICache = cacheConfig(cs)
					cfg.MissPenalty = pen
					cells = append(cells, newCell(b, cfg))
				}
			}
		}
		return cells
	}, func(_ int, b *synth.Bench, outs []distsweep.JobResult) ([][]any, error) {
		var rows [][]any
		for _, cs := range cacheSizes {
			for _, pen := range penalties {
				grp := outs[len(rows)*len(pols):]
				ispi := policyISPI(pols, grp)
				verdict := "aggressive"
				if ispi[core.Pessimistic] < ispi[core.Optimistic] {
					verdict = "conservative"
				}
				row := []any{b.Profile().Name, b.Image().SizeBytes() / 1024,
					fmt.Sprintf("%dK", cs/1024), fmt.Sprintf("%dc", pen)}
				for _, pol := range pols {
					row = append(row, ispi[pol])
				}
				// pols[0] is Oracle, whose miss ratio the row reports.
				rows = append(rows, append(row, grp[0].Result.MissRatioPct(), verdict))
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}

	t := texttable.New("Modern-footprint study: does the 1995 verdict hold at datacenter scale? (total ISPI)",
		"Program", "KB", "cache", "penalty", "Oracle", "Opt", "Res", "Pess", "Dec", "miss%", "verdict")
	for _, r := range slices.Concat(rows...) {
		t.AddRowF(2, r...)
	}
	return t, nil
}
