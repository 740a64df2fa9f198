package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"specfetch/internal/metrics"
)

// SeriesPoint is one row of a run's exported time series: a view over one
// WindowRecord. Rate fields describe the window; CumISPI is cumulative since
// run start, so the last point's CumISPI equals the run's final
// Result.TotalISPI exactly.
type SeriesPoint struct {
	// Insts / Cycle locate the window's closing edge (cumulative
	// instruction count and cycle).
	Insts int64 `json:"insts"`
	Cycle int64 `json:"cycle"`
	// IPC is useful instructions per cycle over the window.
	IPC float64 `json:"ipc"`
	// ISPI is total issue slots lost per instruction over the window.
	ISPI float64 `json:"ispi"`
	// CumISPI is total ISPI from run start through the window's end.
	CumISPI float64 `json:"cum_ispi"`
	// CompISPI is the window ISPI per penalty component, indexed in the
	// paper's stacking order (metrics.Components()).
	CompISPI [metrics.NumComponents]float64 `json:"comp_ispi"`
	// MissPct is right-path misses per structural line reference over the
	// window, as a percentage.
	MissPct float64 `json:"miss_pct"`
	// BusOccupancyPct is the fraction of window cycles the memory bus was
	// occupied, as a percentage (can exceed 100 with pipelined memory).
	BusOccupancyPct float64 `json:"bus_occupancy_pct"`
}

// SeriesPoints derives the exported rows from a window series that tiles a
// run from its start (as WindowSeries.Records does).
func SeriesPoints(rs []WindowRecord) []SeriesPoint {
	pts := make([]SeriesPoint, len(rs))
	var cumLost int64
	for i, r := range rs {
		cumLost += r.TotalLost()
		p := SeriesPoint{
			Insts:           r.EndInsts,
			Cycle:           r.EndCycle,
			ISPI:            r.ISPI(),
			CumISPI:         metrics.Slots(cumLost).PerInst(r.EndInsts),
			MissPct:         r.MissPct(),
			BusOccupancyPct: r.BusOccupancyPct(),
		}
		if c := r.Cycles(); c > 0 {
			p.IPC = float64(r.Insts()) / float64(c)
		}
		for _, c := range metrics.Components() {
			p.CompISPI[c] = r.CompISPI(c)
		}
		pts[i] = p
	}
	return pts
}

// WriteSeriesCSV writes the series rows with a header row; component
// columns follow the paper's stacking order, prefixed "ispi_".
func WriteSeriesCSV(w io.Writer, rs []WindowRecord) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("insts,cycle,ipc,ispi,cum_ispi"); err != nil {
		return err
	}
	for _, c := range metrics.Components() {
		fmt.Fprintf(bw, ",ispi_%s", c)
	}
	if _, err := bw.WriteString(",miss_pct,bus_occupancy_pct\n"); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, p := range SeriesPoints(rs) {
		fmt.Fprintf(bw, "%d,%d,%s,%s,%s", p.Insts, p.Cycle, f(p.IPC), f(p.ISPI), f(p.CumISPI))
		for _, v := range p.CompISPI {
			fmt.Fprintf(bw, ",%s", f(v))
		}
		fmt.Fprintf(bw, ",%s,%s\n", f(p.MissPct), f(p.BusOccupancyPct))
	}
	return bw.Flush()
}

// WriteSeriesJSON writes the series rows as a JSON array ([] when empty).
func WriteSeriesJSON(w io.Writer, rs []WindowRecord) error {
	return json.NewEncoder(w).Encode(SeriesPoints(rs))
}
