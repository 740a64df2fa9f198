package experiments

import (
	"fmt"

	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/isa"
	"specfetch/internal/synth"
	"specfetch/internal/texttable"
)

// ModernStudy asks whether the paper's 1995 conclusions survive
// datacenter-scale instruction footprints: it runs the five policies over
// the modern workload stand-ins (web/db/search, footprints ~10-20× SPEC92's)
// across cache sizes, at both the low and high miss penalty, as one flat
// work-list of bench x cache x penalty x policy cells.
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

	var cells []runCell
	for _, b := range benches {
		for _, cs := range cacheSizes {
			for _, pen := range penalties {
				for _, pol := range pols {
					cfg := baseConfig(pol)
					cfg.ICache = cache.Config{SizeBytes: cs, LineBytes: isa.DefaultLineBytes, Assoc: 1}
					cfg.MissPenalty = pen
					cells = append(cells, newCell(b, cfg))
				}
			}
		}
	}
	results, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}

	t := texttable.New("Modern-footprint study: does the 1995 verdict hold at datacenter scale? (total ISPI)",
		"Program", "KB", "cache", "penalty", "Oracle", "Opt", "Res", "Pess", "Dec", "miss%", "verdict")
	i := 0
	for _, b := range benches {
		for _, cs := range cacheSizes {
			for _, pen := range penalties {
				byPol := map[core.Policy]core.Result{}
				for _, pol := range pols {
					byPol[pol] = results[i]
					i++
				}
				verdict := "aggressive"
				if byPol[core.Pessimistic].TotalISPI() < byPol[core.Optimistic].TotalISPI() {
					verdict = "conservative"
				}
				t.AddRowF(2,
					b.Profile().Name,
					b.Image().SizeBytes()/1024,
					fmt.Sprintf("%dK", cs/1024),
					fmt.Sprintf("%dc", pen),
					byPol[core.Oracle].TotalISPI(),
					byPol[core.Optimistic].TotalISPI(),
					byPol[core.Resume].TotalISPI(),
					byPol[core.Pessimistic].TotalISPI(),
					byPol[core.Decode].TotalISPI(),
					byPol[core.Oracle].MissRatioPct(),
					verdict)
			}
		}
	}
	return t, nil
}
