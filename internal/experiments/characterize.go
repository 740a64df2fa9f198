// Package experiments contains one runner per table and figure of the
// paper's evaluation section, plus the benchmark characterization used to
// calibrate the synthetic workloads.
package experiments

import (
	"fmt"

	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/isa"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
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

// Characterization reports the Table 2/3 statistics of one (synthetic)
// benchmark, in the paper's units.
type Characterization struct {
	Name string
	Lang synth.Lang
	// BranchPct is the dynamic branch percentage (Table 2).
	BranchPct float64
	// CondPct is the dynamic conditional-branch percentage.
	CondPct float64
	// Miss8K / Miss32K are right-path miss percentages per instruction on
	// the paper's two cache sizes (Table 3).
	Miss8K, Miss32K float64
	// PHTISPIB1 / PHTISPIB4 are PHT mispredict ISPIs at depth 1 / 4.
	PHTISPIB1, PHTISPIB4 float64
	// BTBMisfetchISPI / BTBMispredictISPI at depth 4.
	BTBMisfetchISPI, BTBMispredictISPI float64
	// StaticInsts is the code footprint in instructions.
	StaticInsts int
}

// characterizeCells flattens the characterization's three simulations per
// benchmark (8K baseline, 32K cache, depth-1 speculation) into one work-list,
// bench-major so cell 3i..3i+2 belong to benches[i].
func characterizeCells(benches []*synth.Bench) []runCell {
	cells := make([]runCell, 0, 3*len(benches))
	for _, b := range benches {
		cfg32 := baseConfig(core.Oracle)
		cfg32.ICache = cacheConfig(32 * 1024)
		cfgB1 := baseConfig(core.Oracle)
		cfgB1.MaxUnresolved = 1
		cells = append(cells,
			newCell(b, baseConfig(core.Oracle)),
			newCell(b, cfg32),
			newCell(b, cfgB1))
	}
	return cells
}

// characterizeMany measures every benchmark over one flat work-list plus a
// per-bench trace scan, then reduces the results in bench order.
func characterizeMany(benches []*synth.Bench, opt Options) ([]Characterization, error) {
	results, err := runCells(opt, characterizeCells(benches))
	if err != nil {
		return nil, err
	}
	scans, err := benchRows(opt, benches, func(b *synth.Bench) (trace.Stats, error) {
		st, err := trace.Scan(trace.NewLimitReader(b.NewWalker(defaultStreamSeed), opt.Insts))
		if err != nil {
			return st, fmt.Errorf("scanning %s: %w", b.Profile().Name, err)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}

	out := make([]Characterization, len(benches))
	for i, b := range benches {
		c := Characterization{
			Name:        b.Profile().Name,
			Lang:        b.Profile().Lang,
			StaticInsts: b.Image().NumInsts(),
		}
		st := scans[i]
		c.BranchPct = 100 * st.BranchFrac()
		if st.Insts > 0 {
			c.CondPct = 100 * float64(st.Conditionals) / float64(st.Insts)
		}
		res8, res32, resB1 := results[3*i], results[3*i+1], results[3*i+2]
		c.Miss8K = res8.MissRatioPct()
		c.PHTISPIB4 = res8.PHTMispredictISPI()
		c.BTBMisfetchISPI = res8.BTBMisfetchISPI()
		c.BTBMispredictISPI = res8.BTBMispredictISPI()
		c.Miss32K = res32.MissRatioPct()
		c.PHTISPIB1 = resB1.PHTMispredictISPI()
		out[i] = c
	}
	return out, nil
}

// Characterize measures a benchmark over the options' instruction budget.
func Characterize(b *synth.Bench, opt Options) (Characterization, error) {
	cs, err := characterizeMany([]*synth.Bench{b}, opt)
	if err != nil {
		return Characterization{}, err
	}
	return cs[0], nil
}
