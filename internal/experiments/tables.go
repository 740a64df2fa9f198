package experiments

import (
	"fmt"

	"specfetch/internal/classify"
	"specfetch/internal/core"
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

// Table3Row holds one benchmark's characteristics for tests.
type Table3Row struct {
	Characterization
	Paper synth.PaperStats
}

// Table3Data measures every selected benchmark's Table 3 characteristics.
func Table3Data(opt Options) ([]Table3Row, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	chars, err := characterizeMany(benches, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, len(chars))
	for i, c := range chars {
		rows[i] = Table3Row{Characterization: c, Paper: synth.PaperTargets[c.Name]}
	}
	return rows, nil
}

// Table3 reproduces the cache and branch-architecture characteristics table.
func Table3(opt Options) (*texttable.Table, error) {
	rows, err := Table3Data(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Table 3: I-cache and branch prediction characteristics (paper values in parentheses)",
		"Program", "%Miss 8K", "%Miss 32K", "PHT ISPI B1", "PHT ISPI B4", "BTB Misfetch", "BTB Mispredict")
	var m8, m32, b1, b4, mf, mp []float64
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%.2f (%.2f)", r.Miss8K, r.Paper.Miss8K),
			fmt.Sprintf("%.2f (%.2f)", r.Miss32K, r.Paper.Miss32K),
			fmt.Sprintf("%.2f (%.2f)", r.PHTISPIB1, r.Paper.PHTISPIB1),
			fmt.Sprintf("%.2f (%.2f)", r.PHTISPIB4, r.Paper.PHTISPIB4),
			fmt.Sprintf("%.2f (%.2f)", r.BTBMisfetchISPI, r.Paper.BTBMisfetchISPI),
			fmt.Sprintf("%.2f (%.2f)", r.BTBMispredictISPI, r.Paper.BTBMispredictISPI))
		m8 = append(m8, r.Miss8K)
		m32 = append(m32, r.Miss32K)
		b1 = append(b1, r.PHTISPIB1)
		b4 = append(b4, r.PHTISPIB4)
		mf = append(mf, r.BTBMisfetchISPI)
		mp = append(mp, r.BTBMispredictISPI)
	}
	t.AddRowF(2, "Average", mean(m8), mean(m32), mean(b1), mean(b4), mean(mf), mean(mp))
	return t, nil
}

// Table4Row pairs a benchmark with its miss classification.
type Table4Row struct {
	Bench string
	classify.Categories
}

// Table4Data classifies misses for every selected benchmark on the baseline
// machine (8K, 5-cycle penalty, depth 4, no prefetch): one flat work-list of
// each bench's Oracle and Optimistic arms, cells 2i and 2i+1 for benches[i],
// whose recorded miss bitmaps classify.Categorize matches.
func Table4Data(opt Options) ([]Table4Row, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	cells := make([]runCell, 0, 2*len(benches))
	for _, b := range benches {
		for _, pol := range []core.Policy{core.Oracle, core.Optimistic} {
			cells = append(cells, newCell(b, classify.ArmConfig(baseConfig(core.Oracle), pol)))
		}
	}
	results, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]Table4Row, len(benches))
	for i, b := range benches {
		cat, err := classify.Categorize(results[2*i], results[2*i+1])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Profile().Name, err)
		}
		rows[i] = Table4Row{Bench: b.Profile().Name, Categories: cat}
	}
	return rows, nil
}

// Table4 reproduces the miss-ratio categorization table.
func Table4(opt Options) (*texttable.Table, error) {
	rows, err := Table4Data(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Table 4: categorization of miss ratios (BM=both miss, SPo=spec pollute, SPr=spec prefetch, WP=wrong path, TR=traffic ratio)",
		"Program", "BM", "SPo", "SPr", "WP", "TR")
	var bm, spo, spr, wp, tr []float64
	for _, r := range rows {
		t.AddRowF(2, r.Bench, r.BothMiss, r.SpecPollute, r.SpecPrefetch, r.WrongPath, r.TrafficRatio)
		bm = append(bm, r.BothMiss)
		spo = append(spo, r.SpecPollute)
		spr = append(spr, r.SpecPrefetch)
		wp = append(wp, r.WrongPath)
		tr = append(tr, r.TrafficRatio)
	}
	t.AddRowF(2, "Average", mean(bm), mean(spo), mean(spr), mean(wp), mean(tr))
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
// one flat work-list of bench x depth x policy cells.
func Table5Data(opt Options) ([]Table5Row, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	pols := core.Policies()
	var cells []runCell
	for _, b := range benches {
		for _, depth := range Table5Depths {
			for _, pol := range pols {
				cfg := baseConfig(pol)
				cfg.MaxUnresolved = depth
				cells = append(cells, newCell(b, cfg))
			}
		}
	}
	results, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]Table5Row, len(benches))
	i := 0
	for bi, b := range benches {
		row := Table5Row{Bench: b.Profile().Name, ISPI: map[int]map[core.Policy]float64{}}
		for _, depth := range Table5Depths {
			row.ISPI[depth] = map[core.Policy]float64{}
			for _, pol := range pols {
				row.ISPI[depth][pol] = results[i].TotalISPI()
				i++
			}
		}
		rows[bi] = row
	}
	return rows, nil
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
	sums := make([]float64, len(headers)-1)
	for _, r := range rows {
		cells := []any{r.Bench}
		i := 0
		for _, d := range Table5Depths {
			for _, p := range core.Policies() {
				v := r.ISPI[d][p]
				cells = append(cells, v)
				sums[i] += v
				i++
			}
		}
		t.AddRowF(2, cells...)
	}
	avg := []any{"Average"}
	for _, s := range sums {
		avg = append(avg, s/float64(len(rows)))
	}
	t.AddRowF(2, avg...)
	return t, nil
}

// Table6Row holds one benchmark's 32K-cache ISPI per policy.
type Table6Row struct {
	Bench string
	ISPI  map[core.Policy]float64
}

// Table6Data measures the policies on the 32K cache at depth 4: one flat
// work-list of bench x policy cells.
func Table6Data(opt Options) ([]Table6Row, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	pols := core.Policies()
	results, err := runCells(opt, table6Cells(benches))
	if err != nil {
		return nil, err
	}
	rows := make([]Table6Row, len(benches))
	for bi, b := range benches {
		row := Table6Row{Bench: b.Profile().Name, ISPI: map[core.Policy]float64{}}
		for pi, pol := range pols {
			row.ISPI[pol] = results[bi*len(pols)+pi].TotalISPI()
		}
		rows[bi] = row
	}
	return rows, nil
}

// table6Cells is Table 6's work-list: every policy over each bench on the
// 32K cache, bench-major.
func table6Cells(benches []*synth.Bench) []runCell {
	var cells []runCell
	for _, b := range benches {
		for _, pol := range core.Policies() {
			cfg := baseConfig(pol)
			cfg.ICache = cacheConfig(32 * 1024)
			cells = append(cells, newCell(b, cfg))
		}
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
	sums := make([]float64, len(core.Policies()))
	for _, r := range rows {
		cells := []any{r.Bench}
		for i, p := range core.Policies() {
			cells = append(cells, r.ISPI[p])
			sums[i] += r.ISPI[p]
		}
		t.AddRowF(2, cells...)
	}
	avg := []any{"Average"}
	for _, s := range sums {
		avg = append(avg, s/float64(len(rows)))
	}
	t.AddRowF(2, avg...)
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

// Table7Data measures prefetch traffic ratios on the baseline machine. The
// work-list interleaves each benchmark's unprefetched Oracle baseline with
// its prefetching runs (stride 1+len(Table7Policies)).
func Table7Data(opt Options) ([]Table7Row, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	stride := 1 + len(Table7Policies)
	var cells []runCell
	for _, b := range benches {
		cells = append(cells, newCell(b, baseConfig(core.Oracle)))
		for _, pol := range Table7Policies {
			cfg := baseConfig(pol)
			cfg.NextLinePrefetch = true
			cells = append(cells, newCell(b, cfg))
		}
	}
	results, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]Table7Row, len(benches))
	for bi, b := range benches {
		denom := float64(results[bi*stride].Traffic.Total())
		row := Table7Row{Bench: b.Profile().Name, Ratio: map[core.Policy]float64{}}
		for pi, pol := range Table7Policies {
			if denom > 0 {
				row.Ratio[pol] = float64(results[bi*stride+1+pi].Traffic.Total()) / denom
			}
		}
		rows[bi] = row
	}
	return rows, nil
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
	sums := make([]float64, len(Table7Policies))
	for _, r := range rows {
		cells := []any{r.Bench}
		for i, p := range Table7Policies {
			cells = append(cells, r.Ratio[p])
			sums[i] += r.Ratio[p]
		}
		t.AddRowF(2, cells...)
	}
	avg := []any{"Average"}
	for _, s := range sums {
		avg = append(avg, s/float64(len(rows)))
	}
	t.AddRowF(2, avg...)
	return t, nil
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
