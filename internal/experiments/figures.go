package experiments

import (
	"slices"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/metrics"
	"specfetch/internal/synth"
	"specfetch/internal/texttable"
)

// FigureBenchmarks are the five representative programs the paper plots in
// Figures 1–4 (one Fortran, two C, two C++).
var FigureBenchmarks = []string{"doduc", "gcc", "li", "groff", "lic"}

// Breakdown is one bar of a figure: a policy's per-component ISPI.
type Breakdown struct {
	Bench      string
	Policy     core.Policy
	Prefetch   bool
	Components map[metrics.Component]float64
	Total      float64
}

// FigureData runs the figure benchmarks with the given miss penalty and
// policy/prefetch combinations, returning one Breakdown per bar.
func FigureData(opt Options, missPenalty int, policies []core.Policy, prefetch []bool) ([]Breakdown, error) {
	figOpt := opt
	if figOpt.Benchmarks == nil {
		figOpt.Benchmarks = FigureBenchmarks
	}
	benches, err := buildAll(figOpt)
	if err != nil {
		return nil, err
	}
	rows, err := sweep(opt, benches, func(_ int, b *synth.Bench) []runCell {
		var cells []runCell
		for _, pol := range policies {
			for _, pref := range prefetch {
				cfg := baseConfig(pol)
				cfg.MissPenalty = missPenalty
				cfg.NextLinePrefetch = pref
				cells = append(cells, newCell(b, cfg))
			}
		}
		return cells
	}, func(_ int, b *synth.Bench, outs []distsweep.JobResult) ([]Breakdown, error) {
		bars := make([]Breakdown, len(outs))
		for k, o := range outs {
			bd := Breakdown{
				Bench:      b.Profile().Name,
				Policy:     policies[k/len(prefetch)],
				Prefetch:   prefetch[k%len(prefetch)],
				Components: map[metrics.Component]float64{},
				Total:      o.Result.TotalISPI(),
			}
			for _, c := range metrics.Components() {
				bd.Components[c] = o.Result.ISPI(c)
			}
			bars[k] = bd
		}
		return bars, nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(rows...), nil
}

// renderFigure converts breakdowns into the stacked-bar rendering.
func renderFigure(title string, bars []Breakdown) *texttable.StackedBars {
	segs := make([]string, 0, metrics.NumComponents)
	for _, c := range metrics.Components() {
		segs = append(segs, c.String())
	}
	fig := texttable.NewStackedBars(title, "ISPI", segs...)
	for _, b := range bars {
		label := shortPolicy(b.Policy)
		if b.Prefetch {
			label += "_Pref"
		}
		vals := make([]float64, 0, len(segs))
		for _, c := range metrics.Components() {
			vals = append(vals, b.Components[c])
		}
		fig.AddBar(b.Bench, label, vals...)
	}
	return fig
}

// Figure1 reproduces the baseline penalty breakdown: all five policies at
// 8K / 5-cycle penalty / depth 4.
func Figure1(opt Options) (*texttable.StackedBars, error) {
	bars, err := FigureData(opt, 5, core.Policies(), []bool{false})
	if err != nil {
		return nil, err
	}
	return renderFigure("Figure 1: penalty breakdown, base architecture (8K, 5-cycle miss penalty, depth 4)", bars), nil
}

// Figure2 reproduces the long-latency breakdown (20-cycle miss penalty).
func Figure2(opt Options) (*texttable.StackedBars, error) {
	bars, err := FigureData(opt, 20, core.Policies(), []bool{false})
	if err != nil {
		return nil, err
	}
	return renderFigure("Figure 2: penalty breakdown with long miss latency (8K, 20-cycle miss penalty, depth 4)", bars), nil
}

// Figure3Policies are the policies the prefetch figures show.
var Figure3Policies = []core.Policy{core.Oracle, core.Resume, core.Pessimistic}

// Figure3 reproduces the next-line prefetching comparison at the base
// 5-cycle penalty.
func Figure3(opt Options) (*texttable.StackedBars, error) {
	bars, err := FigureData(opt, 5, Figure3Policies, []bool{false, true})
	if err != nil {
		return nil, err
	}
	return renderFigure("Figure 3: effect of next-line prefetching (8K, 5-cycle miss penalty, depth 4)", bars), nil
}

// Figure4 reproduces the prefetching comparison at the long 20-cycle
// penalty, where prefetching can hurt.
func Figure4(opt Options) (*texttable.StackedBars, error) {
	bars, err := FigureData(opt, 20, Figure3Policies, []bool{false, true})
	if err != nil {
		return nil, err
	}
	return renderFigure("Figure 4: next-line prefetching with long miss latency (8K, 20-cycle miss penalty, depth 4)", bars), nil
}
