package experiments

import (
	"fmt"
	"math"

	"specfetch/internal/core"
	"specfetch/internal/texttable"
)

// SeedStats summarizes one policy's ISPI across dynamic stream seeds.
type SeedStats struct {
	Mean, StdDev, Min, Max float64
	N                      int
}

// describe computes SeedStats from samples.
func describe(xs []float64) SeedStats {
	s := SeedStats{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if len(xs) == 0 {
		return SeedStats{}
	}
	for _, x := range xs {
		s.Mean += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean /= float64(len(xs))
	for _, x := range xs {
		d := x - s.Mean
		s.StdDev += d * d
	}
	if len(xs) > 1 {
		s.StdDev = math.Sqrt(s.StdDev / float64(len(xs)-1))
	}
	return s
}

// SeedSensitivityRow holds one benchmark's per-policy seed statistics.
type SeedSensitivityRow struct {
	Bench string
	Stats map[core.Policy]SeedStats
}

// SeedSensitivityData reruns the baseline configuration over `seeds`
// distinct dynamic streams per benchmark, quantifying how much the paper's
// Table 5-style numbers move with workload randomness. The synthetic traces
// make this analysis possible at all — the paper had one trace per program.
func SeedSensitivityData(opt Options, seeds int) ([]SeedSensitivityRow, error) {
	if seeds < 2 {
		return nil, fmt.Errorf("experiments: need at least 2 seeds, got %d", seeds)
	}
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	// One flat work-list of bench x seed x policy cells: each dynamic
	// stream's policy cells run back to back, so the cell cache walks every
	// stream once.
	pols := core.Policies()
	var cells []runCell
	for _, b := range benches {
		for s := 0; s < seeds; s++ {
			for _, pol := range pols {
				c := newCell(b, baseConfig(pol))
				c.spec.Seed = uint64(1000 + s)
				cells = append(cells, c)
			}
		}
	}
	results, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	rows := make([]SeedSensitivityRow, len(benches))
	for bi, b := range benches {
		row := SeedSensitivityRow{Bench: b.Profile().Name, Stats: map[core.Policy]SeedStats{}}
		for pi, pol := range pols {
			samples := make([]float64, seeds)
			for s := range samples {
				samples[s] = results[(bi*seeds+s)*len(pols)+pi].TotalISPI()
			}
			row.Stats[pol] = describe(samples)
		}
		rows[bi] = row
	}
	return rows, nil
}

// SeedSensitivity renders the analysis as a table (mean ± sd per policy).
func SeedSensitivity(opt Options, seeds int) (*texttable.Table, error) {
	rows, err := SeedSensitivityData(opt, seeds)
	if err != nil {
		return nil, err
	}
	headers := []string{"Program"}
	for _, p := range core.Policies() {
		headers = append(headers, shortPolicy(p))
	}
	t := texttable.New(fmt.Sprintf("Seed sensitivity: total ISPI over %d dynamic streams (mean ± sd)", seeds),
		headers...)
	for _, r := range rows {
		cells := []string{r.Bench}
		for _, p := range core.Policies() {
			st := r.Stats[p]
			cells = append(cells, fmt.Sprintf("%.2f ± %.3f", st.Mean, st.StdDev))
		}
		t.AddRow(cells...)
	}
	return t, nil
}
