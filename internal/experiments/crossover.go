package experiments

import (
	"fmt"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/synth"
	"specfetch/internal/texttable"
)

// LatencyPoint is one (miss penalty, per-policy ISPI) sample.
type LatencyPoint struct {
	Penalty int
	ISPI    map[core.Policy]float64
}

// LatencySweepRow holds one benchmark's sweep and its crossover.
type LatencySweepRow struct {
	Bench  string
	Points []LatencyPoint
	// Crossover is the smallest swept penalty at which Pessimistic beats
	// Optimistic; 0 means aggressive fetching won at every swept latency.
	Crossover int
}

// DefaultSweepPenalties spans the paper's low (5) and high (20) penalties.
var DefaultSweepPenalties = []int{3, 5, 8, 12, 16, 20, 28, 40}

// LatencySweepData sweeps the I-cache miss penalty for every policy and
// locates the aggressive-vs-conservative crossover the paper's summary is
// built around ("the policy of choice depends on the latency"): penalty x
// policy cells per bench.
func LatencySweepData(opt Options, penalties []int) ([]LatencySweepRow, error) {
	if len(penalties) == 0 {
		penalties = DefaultSweepPenalties
	}
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	pols := core.Policies()
	return sweep(opt, benches, func(_ int, b *synth.Bench) []runCell {
		var cells []runCell
		for _, pen := range penalties {
			for _, pol := range pols {
				cfg := baseConfig(pol)
				cfg.MissPenalty = pen
				cells = append(cells, newCell(b, cfg))
			}
		}
		return cells
	}, func(_ int, b *synth.Bench, outs []distsweep.JobResult) (LatencySweepRow, error) {
		row := LatencySweepRow{Bench: b.Profile().Name}
		for k, pen := range penalties {
			pt := LatencyPoint{Penalty: pen, ISPI: policyISPI(pols, outs[k*len(pols):])}
			row.Points = append(row.Points, pt)
			if row.Crossover == 0 && pt.ISPI[core.Pessimistic] < pt.ISPI[core.Optimistic] {
				row.Crossover = pen
			}
		}
		return row, nil
	})
}

// LatencySweep renders the sweep with the crossover column.
func LatencySweep(opt Options, penalties []int) (*texttable.Table, error) {
	if len(penalties) == 0 {
		penalties = DefaultSweepPenalties
	}
	rows, err := LatencySweepData(opt, penalties)
	if err != nil {
		return nil, err
	}
	headers := []string{"Program"}
	for _, pen := range penalties {
		headers = append(headers, fmt.Sprintf("Opt@%d", pen), fmt.Sprintf("Pess@%d", pen))
	}
	headers = append(headers, "crossover")
	t := texttable.New("Latency sweep: Optimistic vs Pessimistic ISPI per miss penalty, and the crossover latency",
		headers...)
	for _, r := range rows {
		cells := []any{r.Bench}
		for _, pt := range r.Points {
			cells = append(cells, pt.ISPI[core.Optimistic], pt.ISPI[core.Pessimistic])
		}
		if r.Crossover > 0 {
			cells = append(cells, fmt.Sprintf("%dc", r.Crossover))
		} else {
			cells = append(cells, "none")
		}
		t.AddRowF(2, cells...)
	}
	return t, nil
}
