package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"specfetch/internal/core"
	"specfetch/internal/obs"
	"specfetch/internal/texttable"
)

// The oracle-selector yardstick. The paper's summary is that no static fetch
// policy wins everywhere — the best choice depends on the miss latency and
// the program. The interval-analytics layer sharpens that: it runs every
// policy over the same dynamic stream, slices each run into fixed
// instruction-count windows, aligns the five series by instruction index,
// and asks, window by window, which policy lost the fewest issue slots. The
// resulting "oracle selector" — a hypothetical machine that switches to the
// best policy at every window boundary — bounds what any adaptive policy
// could gain over the best static one.

// DefaultOracleInterval is the window width the builders default to:
// coarse enough that a window spans many miss events, fine enough that
// phase changes inside a benchmark show up as winner switches.
const DefaultOracleInterval int64 = 10_000

// DefaultOraclePenalties are the paper's low and high miss latencies.
var DefaultOraclePenalties = []int{5, 20}

// OracleRow is one benchmark x miss-penalty cell: the five aligned window
// series and the per-window winners.
type OracleRow struct {
	Bench   string
	Penalty int
	// Series holds one window series per policy, aligned on instruction
	// boundaries (validated by OracleSelect).
	Series map[core.Policy][]obs.WindowRecord
	// Winners[i] is the policy that lost the fewest issue slots in window i
	// (ties break toward the earlier policy in core.Policies() order).
	Winners []core.Policy
}

// OracleData is the full oracle-selector study: one row per selected
// benchmark per swept penalty, all captured at one window width.
type OracleData struct {
	Interval  int64
	Penalties []int
	Rows      []OracleRow
}

// OracleSelect computes the per-window winner over aligned series: for each
// window index, the policy with the fewest lost slots, ties resolved toward
// the earlier policy in order. It rejects misaligned input — series of
// different lengths or windows with different instruction boundaries —
// because an argmin across windows that do not describe the same
// instructions is meaningless.
func OracleSelect(series map[core.Policy][]obs.WindowRecord, order []core.Policy) ([]core.Policy, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("experiments: oracle selection over no policies")
	}
	ref, ok := series[order[0]]
	if !ok {
		return nil, fmt.Errorf("experiments: no series for policy %v", order[0])
	}
	for _, pol := range order[1:] {
		s, ok := series[pol]
		if !ok {
			return nil, fmt.Errorf("experiments: no series for policy %v", pol)
		}
		if len(s) != len(ref) {
			return nil, fmt.Errorf("experiments: series misaligned: %v has %d windows, %v has %d",
				pol, len(s), order[0], len(ref))
		}
		for i := range s {
			if s[i].StartInsts != ref[i].StartInsts || s[i].EndInsts != ref[i].EndInsts {
				return nil, fmt.Errorf("experiments: series misaligned at window %d: %v spans [%d,%d) insts, %v spans [%d,%d)",
					i, pol, s[i].StartInsts, s[i].EndInsts, order[0], ref[i].StartInsts, ref[i].EndInsts)
			}
		}
	}
	winners := make([]core.Policy, len(ref))
	for i := range ref {
		best := order[0]
		bestLost := series[best][i].TotalLost()
		for _, pol := range order[1:] {
			if l := series[pol][i].TotalLost(); l < bestLost {
				best, bestLost = pol, l
			}
		}
		winners[i] = best
	}
	return winners, nil
}

// insts returns the instructions the row's aligned windows cover.
func (r OracleRow) insts() int64 {
	s := r.Series[core.Policies()[0]]
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].EndInsts - s[0].StartInsts
}

// StaticISPI returns one policy's ISPI over the row's windows — the
// whole-run number a machine locked to that policy would score.
func (r OracleRow) StaticISPI(pol core.Policy) float64 {
	var lost int64
	for _, w := range r.Series[pol] {
		lost += w.TotalLost()
	}
	if n := r.insts(); n > 0 {
		return float64(lost) / float64(n)
	}
	return 0
}

// BestStatic returns the policy with the lowest whole-run ISPI (ties to the
// earlier policy in core.Policies() order) and that ISPI.
func (r OracleRow) BestStatic() (core.Policy, float64) {
	pols := core.Policies()
	best, bestISPI := pols[0], r.StaticISPI(pols[0])
	for _, pol := range pols[1:] {
		if i := r.StaticISPI(pol); i < bestISPI {
			best, bestISPI = pol, i
		}
	}
	return best, bestISPI
}

// OracleISPI returns the selector's ISPI: each window billed at its
// winner's lost slots.
func (r OracleRow) OracleISPI() float64 {
	var lost int64
	for i, pol := range r.Winners {
		lost += r.Series[pol][i].TotalLost()
	}
	if n := r.insts(); n > 0 {
		return float64(lost) / float64(n)
	}
	return 0
}

// Switches counts the winner changes across consecutive windows — how often
// the hypothetical adaptive machine would actually switch.
func (r OracleRow) Switches() int {
	n := 0
	for i := 1; i < len(r.Winners); i++ {
		if r.Winners[i] != r.Winners[i-1] {
			n++
		}
	}
	return n
}

// OracleSelectorData runs the study: every selected benchmark under every
// policy at every swept penalty, seed-locked on the shared stream, windows
// captured at the given width (0 means DefaultOracleInterval). Cells go
// through the standard executor, so the study shards across the pool and
// the distsweep fleet like any other table and renders identical bytes at
// every worker and process count.
func OracleSelectorData(opt Options, interval int64, penalties []int) (*OracleData, error) {
	if interval <= 0 {
		interval = DefaultOracleInterval
	}
	if len(penalties) == 0 {
		penalties = DefaultOraclePenalties
	}
	opt.SampleInterval = interval
	opt.CaptureWindows = true
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	pols := core.Policies()
	var cells []runCell
	for _, b := range benches {
		for _, pen := range penalties {
			for _, pol := range pols {
				cfg := baseConfig(pol)
				cfg.MissPenalty = pen
				cfg.FlushInterval = opt.FlushInterval
				cells = append(cells, newCell(b, cfg))
			}
		}
	}
	full, err := runCellsFull(opt, cells)
	if err != nil {
		return nil, err
	}
	d := &OracleData{Interval: interval, Penalties: penalties}
	i := 0
	for _, b := range benches {
		for _, pen := range penalties {
			row := OracleRow{
				Bench:   b.Profile().Name,
				Penalty: pen,
				Series:  map[core.Policy][]obs.WindowRecord{},
			}
			for _, pol := range pols {
				row.Series[pol] = full[i].windows
				i++
			}
			row.Winners, err = OracleSelect(row.Series, pols)
			if err != nil {
				return nil, fmt.Errorf("%s@%d: %w", row.Bench, pen, err)
			}
			d.Rows = append(d.Rows, row)
		}
	}
	return d, nil
}

// CrossoverTable renders the oracle-vs-static comparison: per benchmark and
// penalty, the best static policy and its ISPI, the oracle selector's ISPI,
// the headroom an adaptive policy could claim, and how often the selector
// switches.
func (d *OracleData) CrossoverTable() *texttable.Table {
	t := texttable.New(
		fmt.Sprintf("Oracle selector vs best static policy (window = %d insts): per-window argmin bounds adaptive-policy headroom", d.Interval),
		"Program", "Penalty", "Best static", "Static ISPI", "Oracle ISPI", "Headroom %", "Switches", "Windows")
	for _, r := range d.Rows {
		best, bestISPI := r.BestStatic()
		oracle := r.OracleISPI()
		headroom := 0.0
		if bestISPI > 0 {
			headroom = 100 * (bestISPI - oracle) / bestISPI
		}
		t.AddRowF(3, r.Bench, fmt.Sprintf("%dc", r.Penalty), shortPolicy(best),
			bestISPI, oracle, headroom, fmt.Sprintf("%d", r.Switches()), fmt.Sprintf("%d", len(r.Winners)))
	}
	return t
}

// policyLetters maps each policy to its winner-map glyph. Optimistic takes
// "A" (aggressive) so Oracle can keep "O".
var policyLetters = map[core.Policy]byte{
	core.Oracle:      'O',
	core.Optimistic:  'A',
	core.Resume:      'R',
	core.Pessimistic: 'P',
	core.Decode:      'D',
}

// WinnerMap renders each row's winner sequence as one letter per window —
// the at-a-glance picture of which policy owns which program phase.
func (d *OracleData) WinnerMap() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Per-window winner map (window = %d insts; O=Oracle A=Optimistic R=Resume P=Pessimistic D=Decode)\n",
		d.Interval)
	width := 0
	for _, r := range d.Rows {
		if n := len(r.Bench) + len(fmt.Sprintf("@%dc", r.Penalty)); n > width {
			width = n
		}
	}
	for _, r := range d.Rows {
		label := fmt.Sprintf("%s@%dc", r.Bench, r.Penalty)
		fmt.Fprintf(&b, "  %-*s  ", width, label)
		for _, pol := range r.Winners {
			b.WriteByte(policyLetters[pol])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// intervalLine is the JSONL record cmd/intervals consumes: one line per
// benchmark x penalty x policy, carrying that run's full window series. The
// v field lets readers reject records from a future incompatible schema.
type intervalLine struct {
	V        int                `json:"v"`
	Bench    string             `json:"bench"`
	Penalty  int                `json:"penalty"`
	Policy   core.Policy        `json:"policy"`
	Interval int64              `json:"interval"`
	Windows  []obs.WindowRecord `json:"windows"`
}

// intervalLineVersion is the JSONL schema version WriteJSONL stamps.
const intervalLineVersion = 1

// WriteJSONL streams the study as line-delimited JSON, one line per
// benchmark x penalty x policy in canonical order — the wire between a
// sweep process and the cmd/intervals report tool.
func (d *OracleData) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range d.Rows {
		for _, pol := range core.Policies() {
			if err := enc.Encode(intervalLine{
				V:        intervalLineVersion,
				Bench:    r.Bench,
				Penalty:  r.Penalty,
				Policy:   pol,
				Interval: d.Interval,
				Windows:  r.Series[pol],
			}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadOracleJSONL rebuilds an OracleData from its JSONL form, regrouping
// lines by benchmark and penalty and recomputing the winners. Rows come
// back in first-appearance order, so a file written by WriteJSONL round
// trips to the same tables.
func ReadOracleJSONL(r io.Reader) (*OracleData, error) {
	type key struct {
		bench string
		pen   int
	}
	d := &OracleData{}
	rows := map[key]*OracleRow{}
	var order []key
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	line := 0
	for sc.Scan() {
		line++
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var l intervalLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("intervals jsonl line %d: %w", line, err)
		}
		if l.V != intervalLineVersion {
			return nil, fmt.Errorf("intervals jsonl line %d: schema v%d, want v%d", line, l.V, intervalLineVersion)
		}
		if d.Interval == 0 {
			d.Interval = l.Interval
		} else if l.Interval != d.Interval {
			return nil, fmt.Errorf("intervals jsonl line %d: mixed intervals %d and %d", line, l.Interval, d.Interval)
		}
		if err := obs.CheckSeries(l.Windows); err != nil {
			return nil, fmt.Errorf("intervals jsonl line %d: %w", line, err)
		}
		k := key{l.Bench, l.Penalty}
		row, ok := rows[k]
		if !ok {
			row = &OracleRow{Bench: l.Bench, Penalty: l.Penalty, Series: map[core.Policy][]obs.WindowRecord{}}
			rows[k] = row
			order = append(order, k)
		}
		if _, dup := row.Series[l.Policy]; dup {
			return nil, fmt.Errorf("intervals jsonl line %d: duplicate series for %s@%d %v", line, l.Bench, l.Penalty, l.Policy)
		}
		row.Series[l.Policy] = l.Windows
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("intervals jsonl: no records")
	}
	pens := map[int]bool{}
	for _, k := range order {
		row := rows[k]
		var err error
		row.Winners, err = OracleSelect(row.Series, core.Policies())
		if err != nil {
			return nil, fmt.Errorf("%s@%d: %w", row.Bench, row.Penalty, err)
		}
		d.Rows = append(d.Rows, *row)
		pens[k.pen] = true
	}
	for p := range pens {
		d.Penalties = append(d.Penalties, p)
	}
	sort.Ints(d.Penalties)
	return d, nil
}
