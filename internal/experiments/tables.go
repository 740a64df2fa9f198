package experiments

import (
	"fmt"

	"specfetch/internal/classify"
	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/synth"
	"specfetch/internal/texttable"
	"specfetch/internal/trace"
)

// Table2 reproduces the benchmark inventory: language, description, and the
// dynamic branch fraction of our synthetic stand-ins next to the paper's.
func Table2(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	stats, err := benchRows(opt, benches, func(b *synth.Bench) (trace.Stats, error) {
		return trace.Scan(b.NewReader(defaultStreamSeed, opt.Insts))
	})
	if err != nil {
		return nil, err
	}
	t := texttable.New("Table 2: benchmark inventory (synthetic stand-ins)",
		"Program", "Lang", "Static KB", "%Branches", "Paper %Br", "Description")
	for i, b := range benches {
		p := b.Profile()
		t.AddRowF(1, p.Name, string(p.Lang),
			float64(b.Image().SizeBytes())/1024,
			100*stats[i].BranchFrac(), synth.PaperTargets[p.Name].BranchPct, p.Description)
	}
	return t, nil
}

// Table3 reproduces the cache and branch-architecture characteristics table.
func Table3(opt Options) (*texttable.Table, error) {
	rows, err := Table3Data(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Table 3: I-cache and branch prediction characteristics (paper values in parentheses)",
		"Program", "%Miss 8K", "%Miss 32K", "PHT ISPI B1", "PHT ISPI B4", "BTB Misfetch", "BTB Mispredict")
	var vals [][]float64
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%.2f (%.2f)", r.Miss8K, r.Paper.Miss8K),
			fmt.Sprintf("%.2f (%.2f)", r.Miss32K, r.Paper.Miss32K),
			fmt.Sprintf("%.2f (%.2f)", r.PHTISPIB1, r.Paper.PHTISPIB1),
			fmt.Sprintf("%.2f (%.2f)", r.PHTISPIB4, r.Paper.PHTISPIB4),
			fmt.Sprintf("%.2f (%.2f)", r.BTBMisfetchISPI, r.Paper.BTBMisfetchISPI),
			fmt.Sprintf("%.2f (%.2f)", r.BTBMispredictISPI, r.Paper.BTBMispredictISPI))
		vals = append(vals, []float64{r.Miss8K, r.Miss32K, r.PHTISPIB1, r.PHTISPIB4, r.BTBMisfetchISPI, r.BTBMispredictISPI})
	}
	t.AddRowF(2, averageRow(vals)...)
	return t, nil
}

// Table4Row pairs a benchmark with its miss classification.
type Table4Row struct {
	Bench string
	classify.Categories
}

// Table4Data classifies misses for every selected benchmark on the baseline
// machine (8K, 5-cycle penalty, depth 4, no prefetch): each bench's Oracle
// and Optimistic arms, whose recorded miss bitmaps classify.Categorize
// matches.
func Table4Data(opt Options) ([]Table4Row, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	return sweep(opt, benches, func(_ int, b *synth.Bench) []runCell {
		base := baseConfig(core.Oracle)
		return []runCell{
			newCell(b, classify.ArmConfig(base, core.Oracle)),
			newCell(b, classify.ArmConfig(base, core.Optimistic)),
		}
	}, func(_ int, b *synth.Bench, outs []distsweep.JobResult) (Table4Row, error) {
		cat, err := classify.Categorize(outs[0].Result, outs[1].Result)
		if err != nil {
			return Table4Row{}, fmt.Errorf("%s: %w", b.Profile().Name, err)
		}
		return Table4Row{Bench: b.Profile().Name, Categories: cat}, nil
	})
}

// Table4 reproduces the miss-ratio categorization table.
func Table4(opt Options) (*texttable.Table, error) {
	rows, err := Table4Data(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Table 4: categorization of miss ratios (BM=both miss, SPo=spec pollute, SPr=spec prefetch, WP=wrong path, TR=traffic ratio)",
		"Program", "BM", "SPo", "SPr", "WP", "TR")
	var vals [][]float64
	for _, r := range rows {
		v := []float64{r.BothMiss, r.SpecPollute, r.SpecPrefetch, r.WrongPath, r.TrafficRatio}
		t.AddRowF(2, numRow(r.Bench, v)...)
		vals = append(vals, v)
	}
	t.AddRowF(2, averageRow(vals)...)
	return t, nil
}

// Table5Row holds one benchmark's ISPI per policy per speculation depth.
type Table5Row struct {
	Bench string
	// ISPI[depth][policy] is the total penalty ISPI.
	ISPI map[int]map[core.Policy]float64
}

// Table5Depths are the speculation depths the paper sweeps.
var Table5Depths = []int{1, 2, 4}

// Table5Data sweeps speculation depth on the baseline 8K/5-cycle machine:
// depth x policy cells per bench.
func Table5Data(opt Options) ([]Table5Row, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	pols := core.Policies()
	return sweep(opt, benches, func(_ int, b *synth.Bench) []runCell {
		var cells []runCell
		for _, depth := range Table5Depths {
			for _, pol := range pols {
				cfg := baseConfig(pol)
				cfg.MaxUnresolved = depth
				cells = append(cells, newCell(b, cfg))
			}
		}
		return cells
	}, func(_ int, b *synth.Bench, outs []distsweep.JobResult) (Table5Row, error) {
		row := Table5Row{Bench: b.Profile().Name, ISPI: map[int]map[core.Policy]float64{}}
		for k, depth := range Table5Depths {
			row.ISPI[depth] = policyISPI(pols, outs[k*len(pols):])
		}
		return row, nil
	})
}

// Table5 reproduces the speculation-depth table (ISPI for 1/2/4 unresolved
// branches, 8K cache, 5-cycle miss penalty).
func Table5(opt Options) (*texttable.Table, error) {
	rows, err := Table5Data(opt)
	if err != nil {
		return nil, err
	}
	headers := []string{"Program"}
	for _, d := range Table5Depths {
		for _, p := range core.Policies() {
			headers = append(headers, fmt.Sprintf("B%d %s", d, shortPolicy(p)))
		}
	}
	t := texttable.New("Table 5: effect of speculation depth (total penalty ISPI; 8K direct mapped, 5-cycle miss penalty)",
		headers...)
	var vals [][]float64
	for _, r := range rows {
		var v []float64
		for _, d := range Table5Depths {
			v = append(v, policyValues(core.Policies(), r.ISPI[d])...)
		}
		t.AddRowF(2, numRow(r.Bench, v)...)
		vals = append(vals, v)
	}
	t.AddRowF(2, averageRow(vals)...)
	return t, nil
}

// Table6Row holds one benchmark's 32K-cache ISPI per policy.
type Table6Row struct {
	Bench string
	ISPI  map[core.Policy]float64
}

// Table6Data measures the policies on the 32K cache at depth 4.
func Table6Data(opt Options) ([]Table6Row, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	return sweep(opt, benches, table6Cells, func(_ int, b *synth.Bench, outs []distsweep.JobResult) (Table6Row, error) {
		return Table6Row{Bench: b.Profile().Name, ISPI: policyISPI(core.Policies(), outs)}, nil
	})
}

// table6Cells is one bench's Table 6 cells: every policy on the 32K cache.
func table6Cells(_ int, b *synth.Bench) []runCell {
	var cells []runCell
	for _, pol := range core.Policies() {
		cfg := baseConfig(pol)
		cfg.ICache = cacheConfig(32 * 1024)
		cells = append(cells, newCell(b, cfg))
	}
	return cells
}

// Table6 reproduces the cache-size table (32K direct mapped, 5-cycle miss
// penalty, depth 4).
func Table6(opt Options) (*texttable.Table, error) {
	rows, err := Table6Data(opt)
	if err != nil {
		return nil, err
	}
	headers := []string{"Program"}
	for _, p := range core.Policies() {
		headers = append(headers, shortPolicy(p))
	}
	t := texttable.New("Table 6: effect of cache size (total penalty ISPI; 32K direct mapped, 5-cycle miss penalty)", headers...)
	var vals [][]float64
	for _, r := range rows {
		v := policyValues(core.Policies(), r.ISPI)
		t.AddRowF(2, numRow(r.Bench, v)...)
		vals = append(vals, v)
	}
	t.AddRowF(2, averageRow(vals)...)
	return t, nil
}

// Table7Row holds one benchmark's prefetch memory-traffic ratios.
type Table7Row struct {
	Bench string
	// Ratio[policy] is (line fetches with prefetching) / (Oracle line
	// fetches without prefetching).
	Ratio map[core.Policy]float64
}

// Table7Policies are the policies the paper reports traffic for.
var Table7Policies = []core.Policy{core.Oracle, core.Resume, core.Pessimistic}

// Table7Data measures prefetch traffic ratios on the baseline machine:
// each bench's unprefetched Oracle baseline, then its prefetching runs.
func Table7Data(opt Options) ([]Table7Row, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	return sweep(opt, benches, func(_ int, b *synth.Bench) []runCell {
		cells := []runCell{newCell(b, baseConfig(core.Oracle))}
		for _, pol := range Table7Policies {
			cfg := baseConfig(pol)
			cfg.NextLinePrefetch = true
			cells = append(cells, newCell(b, cfg))
		}
		return cells
	}, func(_ int, b *synth.Bench, outs []distsweep.JobResult) (Table7Row, error) {
		denom := float64(outs[0].Result.Traffic.Total())
		row := Table7Row{Bench: b.Profile().Name, Ratio: map[core.Policy]float64{}}
		for k, pol := range Table7Policies {
			if denom > 0 {
				row.Ratio[pol] = float64(outs[1+k].Result.Traffic.Total()) / denom
			}
		}
		return row, nil
	})
}

// Table7 reproduces the prefetch memory-traffic table: line fetches with
// next-line prefetching relative to Oracle without prefetching.
func Table7(opt Options) (*texttable.Table, error) {
	rows, err := Table7Data(opt)
	if err != nil {
		return nil, err
	}
	headers := []string{"Program"}
	for _, p := range Table7Policies {
		headers = append(headers, shortPolicy(p))
	}
	t := texttable.New("Table 7: memory traffic with next-line prefetching, relative to Oracle without prefetching", headers...)
	var vals [][]float64
	for _, r := range rows {
		v := policyValues(Table7Policies, r.Ratio)
		t.AddRowF(2, numRow(r.Bench, v)...)
		vals = append(vals, v)
	}
	t.AddRowF(2, averageRow(vals)...)
	return t, nil
}

// policyISPI maps each of pols to the total ISPI of its cell; outs starts
// with one cell per policy, in pols order.
func policyISPI(pols []core.Policy, outs []distsweep.JobResult) map[core.Policy]float64 {
	m := make(map[core.Policy]float64, len(pols))
	for k, pol := range pols {
		m[pol] = outs[k].Result.TotalISPI()
	}
	return m
}

// policyValues lists m's value for each of pols, in pols order.
func policyValues(pols []core.Policy, m map[core.Policy]float64) []float64 {
	v := make([]float64, len(pols))
	for k, pol := range pols {
		v[k] = m[pol]
	}
	return v
}

// numRow is a table row: the label, then vals.
func numRow(label string, vals []float64) []any {
	row := []any{label}
	for _, v := range vals {
		row = append(row, v)
	}
	return row
}

// averageRow is a table's "Average" row, the paper's arithmetic mean: each
// column of rows summed in row order, then divided once by the row count.
func averageRow(rows [][]float64) []any {
	var sums []float64
	for _, r := range rows {
		if sums == nil {
			sums = make([]float64, len(r))
		}
		for c, v := range r {
			sums[c] += v
		}
	}
	for c := range sums {
		sums[c] /= float64(len(rows))
	}
	return numRow("Average", sums)
}

// shortPolicy abbreviates policy names like the paper's column heads.
func shortPolicy(p core.Policy) string {
	switch p {
	case core.Oracle:
		return "Oracle"
	case core.Optimistic:
		return "Opt"
	case core.Resume:
		return "Res"
	case core.Pessimistic:
		return "Pess"
	case core.Decode:
		return "Dec"
	case core.Adaptive:
		return "Adpt"
	}
	return p.String()
}
