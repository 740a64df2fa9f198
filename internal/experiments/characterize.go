// Package experiments contains one runner per table and figure of the
// paper's evaluation section, plus the benchmark characterization that
// Table 3 renders beside the paper's values.
package experiments

import (
	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/isa"
	"specfetch/internal/synth"
)

// cacheConfig builds the paper's direct-mapped cache of the given size.
func cacheConfig(sizeBytes int) cache.Config {
	return cache.Config{SizeBytes: sizeBytes, LineBytes: isa.DefaultLineBytes, Assoc: 1}
}

// baseConfig returns the paper's baseline machine with the given policy.
func baseConfig(pol core.Policy) core.Config {
	cfg := core.DefaultConfig()
	cfg.Policy = pol
	return cfg
}

// defaultStreamSeed keeps all experiments on the same dynamic stream per
// benchmark, as the paper replays one trace per program.
const defaultStreamSeed = 0x5eed

// Characterization reports the Table 3 statistics of one (synthetic)
// benchmark, in the paper's units.
type Characterization struct {
	Name string
	Lang synth.Lang
	// Miss8K / Miss32K are right-path miss percentages per instruction on
	// the paper's two cache sizes (Table 3).
	Miss8K, Miss32K float64
	// PHTISPIB1 / PHTISPIB4 are PHT mispredict ISPIs at depth 1 / 4.
	PHTISPIB1, PHTISPIB4 float64
	// BTBMisfetchISPI / BTBMispredictISPI at depth 4.
	BTBMisfetchISPI, BTBMispredictISPI float64
}

// Table3Row holds one benchmark's characteristics beside the paper's.
type Table3Row struct {
	Characterization
	Paper synth.PaperStats
}

// Table3Data measures every selected benchmark's Table 3 characteristics
// from three cells per bench: the 8K baseline, the 32K cache and depth-1
// speculation.
func Table3Data(opt Options) ([]Table3Row, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	return sweep(opt, benches, func(_ int, b *synth.Bench) []runCell {
		cfg32 := baseConfig(core.Oracle)
		cfg32.ICache = cacheConfig(32 * 1024)
		cfgB1 := baseConfig(core.Oracle)
		cfgB1.MaxUnresolved = 1
		return []runCell{newCell(b, baseConfig(core.Oracle)), newCell(b, cfg32), newCell(b, cfgB1)}
	}, func(_ int, b *synth.Bench, outs []distsweep.JobResult) (Table3Row, error) {
		res8, res32, resB1 := outs[0].Result, outs[1].Result, outs[2].Result
		c := Characterization{
			Name:              b.Profile().Name,
			Lang:              b.Profile().Lang,
			Miss8K:            res8.MissRatioPct(),
			Miss32K:           res32.MissRatioPct(),
			PHTISPIB1:         resB1.PHTMispredictISPI(),
			PHTISPIB4:         res8.PHTMispredictISPI(),
			BTBMisfetchISPI:   res8.BTBMisfetchISPI(),
			BTBMispredictISPI: res8.BTBMispredictISPI(),
		}
		return Table3Row{Characterization: c, Paper: synth.PaperTargets[c.Name]}, nil
	})
}
