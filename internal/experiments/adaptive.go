package experiments

import (
	"fmt"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/synth"
	"specfetch/internal/texttable"
)

// The adaptive headline study: the online meta-policy against the bounds.
// The oracle selector (oracle.go) is the offline upper bound — switch to the
// per-window argmin with perfect hindsight — and the best static policy is
// the floor any adaptive scheme must beat to earn its hardware. This study
// runs a real chooser strategy over the same seed-locked streams as the
// oracle study, at the same window width, and reports where it lands between
// the two: the headroom-capture column is the fraction of the oracle's gain
// over the best static policy that the online chooser actually realized.

// AdaptiveRow is one benchmark x miss-penalty cell of the adaptive run.
type AdaptiveRow struct {
	Bench   string
	Penalty int
	// ISPI is the adaptive run's whole-run issue slots lost per instruction.
	ISPI float64
	// Switches counts the chooser's active-policy changes over the run.
	Switches int64
}

// AdaptiveData is the full study: the adaptive rows plus the oracle study
// they are measured against, row-aligned (same benchmark x penalty order).
type AdaptiveData struct {
	Strategy string
	Interval int64
	Oracle   *OracleData
	Rows     []AdaptiveRow
}

// AdaptiveStudyData runs the study: the full oracle-selector sweep (five
// static policies, windows captured) plus one adaptive run per benchmark x
// penalty under the named chooser strategy, all over the shared stream seed
// so every machine faces the identical dynamic instruction stream. Both
// arms are one work-list, each bench's oracle cells followed by its
// adaptive cells, so every stream is walked once and replayed to all of
// its cells; the oracle arm equals what OracleSelectorData returns at the
// same settings. Cells go through the standard executor and shard across
// the pool and the distsweep fleet; the chooser itself never leaves the
// worker that runs the cell (it is rebuilt there from the strategy name),
// which is what keeps remote runs byte-identical to local ones. An unknown
// strategy fails the spec validation every cell meets before any cell
// runs, and a negative interval fails before any bench is built. No
// strategy reads seed; it stays only because perfbench compiles against
// this signature.
func AdaptiveStudyData(opt Options, strategy string, seed uint64, interval int64, penalties []int) (*AdaptiveData, error) {
	interval, penalties, err := resolveOracle(interval, penalties)
	if err != nil {
		return nil, err
	}
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	arm := len(penalties) * len(core.Policies()) // oracle cells per bench
	type armRows struct {
		oracle   []OracleRow
		adaptive []AdaptiveRow
	}
	rows, err := sweep(opt, benches, func(_ int, b *synth.Bench) []runCell {
		cells := oracleCells(opt, b, interval, penalties)
		for _, pen := range penalties {
			cfg := baseConfig(core.Adaptive)
			cfg.MissPenalty = pen
			cfg.FlushInterval = opt.FlushInterval
			cfg.AdaptStrategy = strategy
			cfg.AdaptInterval = interval
			cells = append(cells, newCell(b, cfg))
		}
		return cells
	}, func(_ int, b *synth.Bench, outs []distsweep.JobResult) (armRows, error) {
		or, err := oracleRows(b, penalties, outs[:arm])
		if err != nil {
			return armRows{}, err
		}
		r := armRows{oracle: or}
		for j, pen := range penalties {
			res := outs[arm+j].Result
			r.adaptive = append(r.adaptive, AdaptiveRow{
				Bench:    b.Profile().Name,
				Penalty:  pen,
				ISPI:     res.TotalISPI(),
				Switches: res.PolicySwitches,
			})
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	oracle := &OracleData{Interval: interval, Penalties: penalties}
	d := &AdaptiveData{Strategy: strategy, Interval: interval, Oracle: oracle}
	for _, r := range rows {
		oracle.Rows = append(oracle.Rows, r.oracle...)
		d.Rows = append(d.Rows, r.adaptive...)
	}
	return d, nil
}

// Capture returns row i's oracle-headroom capture in percent: how much of
// the oracle selector's gain over the best static policy the online chooser
// realized. 100 means the chooser matched the oracle, 0 means it merely
// matched the best static policy, negative means it lost to the best static
// policy. The second return is false when the oracle found no headroom at
// all (capture is undefined there).
func (d *AdaptiveData) Capture(i int) (float64, bool) {
	or := d.Oracle.Rows[i]
	_, bestISPI := or.BestStatic()
	oracleISPI := or.OracleISPI()
	if bestISPI <= oracleISPI {
		return 0, false
	}
	return 100 * (bestISPI - d.Rows[i].ISPI) / (bestISPI - oracleISPI), true
}

// CrossoverTable renders the headline artifact: per benchmark and penalty,
// the best static policy and its ISPI, the online adaptive ISPI, the oracle
// bound, the headroom capture, and how often the chooser switched.
func (d *AdaptiveData) CrossoverTable() *texttable.Table {
	t := texttable.New(
		fmt.Sprintf("Adaptive (%s, window = %d insts) vs best static vs oracle selector: capture %% = share of oracle headroom realized online",
			d.Strategy, d.Interval),
		"Program", "Penalty", "Best static", "Static ISPI", "Adaptive ISPI", "Oracle ISPI", "Capture %", "Switches")
	for i, r := range d.Rows {
		or := d.Oracle.Rows[i]
		best, bestISPI := or.BestStatic()
		capture := "-"
		if c, ok := d.Capture(i); ok {
			capture = fmt.Sprintf("%.1f", c)
		}
		t.AddRowF(3, r.Bench, fmt.Sprintf("%dc", r.Penalty), shortPolicy(best),
			bestISPI, r.ISPI, or.OracleISPI(), capture, fmt.Sprintf("%d", r.Switches))
	}
	return t
}

// WinnerMap renders the oracle study's per-window winner letters — the
// phase picture the online chooser is trying to track.
func (d *AdaptiveData) WinnerMap() string { return d.Oracle.WinnerMap() }
