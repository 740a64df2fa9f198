package obs

import (
	"fmt"
	"slices"

	"specfetch/internal/metrics"
)

// WindowRecord is one fixed-instruction-count window of a run, the unit the
// interval-analytics layer aligns across policies. It is a wire/export type:
// every quantity is a raw int64 (unit conversions happen once, in Since),
// so the JSON encoding is stable and language-neutral. Start values are the
// cumulative counters at the window's opening edge, so consecutive records
// tile the run: record i+1's StartInsts equals record i's EndInsts.
type WindowRecord struct {
	// Index is the window's position in the series, from 0.
	Index int `json:"index"`
	// StartInsts/EndInsts bound the window in cumulative correct-path
	// instructions; series from different policies over the same trace
	// align on these.
	StartInsts int64 `json:"start_insts"`
	EndInsts   int64 `json:"end_insts"`
	// StartCycle/EndCycle bound the window on the simulated clock.
	StartCycle int64 `json:"start_cycle"`
	EndCycle   int64 `json:"end_cycle"`
	// Lost is the window's lost issue slots per penalty component, in the
	// paper's stacking order (metrics.Components()).
	Lost [metrics.NumComponents]int64 `json:"lost"`
	// Accesses/Misses count the window's structural right-path line
	// references and their misses.
	Accesses int64 `json:"accesses"`
	Misses   int64 `json:"misses"`
	// BusTransfers counts line movements over the memory bus in the window;
	// BusBusy is the cycles the bus spent transferring.
	BusTransfers int64 `json:"bus_transfers"`
	BusBusy      int64 `json:"bus_busy"`
}

// Insts returns the number of instructions issued in the window.
func (r WindowRecord) Insts() int64 { return r.EndInsts - r.StartInsts }

// Cycles returns the number of cycles the window spans.
func (r WindowRecord) Cycles() int64 { return r.EndCycle - r.StartCycle }

// TotalLost returns the window's lost slots summed over components.
func (r WindowRecord) TotalLost() int64 {
	var t int64
	for _, l := range r.Lost {
		t += l
	}
	return t
}

// ISPI returns the window's issue slots lost per instruction.
func (r WindowRecord) ISPI() float64 {
	if n := r.Insts(); n > 0 {
		return float64(r.TotalLost()) / float64(n)
	}
	return 0
}

// CompISPI returns the window's ISPI for one penalty component.
func (r WindowRecord) CompISPI(c metrics.Component) float64 {
	if n := r.Insts(); n > 0 {
		return float64(r.Lost[c]) / float64(n)
	}
	return 0
}

// MissPct returns right-path misses per structural reference in the window,
// as a percentage.
func (r WindowRecord) MissPct() float64 {
	if r.Accesses > 0 {
		return 100 * float64(r.Misses) / float64(r.Accesses)
	}
	return 0
}

// BusOccupancyPct returns the fraction of window cycles the bus was
// transferring, as a percentage (can exceed 100 with pipelined memory).
func (r WindowRecord) BusOccupancyPct() float64 {
	if c := r.Cycles(); c > 0 {
		return 100 * float64(r.BusBusy) / float64(c)
	}
	return 0
}

// Since differences two cumulative snapshots into the window [from, to),
// numbered index — the one place window quantities leave the typed
// Cycles/Slots domain. Every windowed view (the stored series, its CSV/JSON
// rows, the adaptive chooser's digest) is built from records cut here.
func (to Snapshot) Since(from Snapshot, index int) WindowRecord {
	r := WindowRecord{
		Index:        index,
		StartInsts:   from.Insts,
		EndInsts:     to.Insts,
		StartCycle:   from.Cycle.Int64(),
		EndCycle:     to.Cycle.Int64(),
		Accesses:     to.RightPathAccesses - from.RightPathAccesses,
		Misses:       to.RightPathMisses - from.RightPathMisses,
		BusTransfers: int64(to.BusTransfers - from.BusTransfers),
		BusBusy:      (to.BusBusy - from.BusBusy).Int64(),
	}
	for i := range r.Lost {
		r.Lost[i] = (to.Lost[i] - from.Lost[i]).Int64()
	}
	return r
}

// CheckSeries validates a window series received from outside the process:
// records are numbered from 0 in order, each starts where the previous one
// ended in both instructions and cycles, each spans at least one
// instruction and does not run backwards in time, no count is negative, and
// no window misses more often than it references a line. Series cut by
// WindowSeries always pass.
func CheckSeries(rs []WindowRecord) error {
	for i, r := range rs {
		var why string
		switch {
		case r.Index != i:
			why = "is out of order"
		case i > 0 && (r.StartInsts != rs[i-1].EndInsts || r.StartCycle != rs[i-1].EndCycle):
			why = "does not start where the previous window ended"
		case r.EndInsts <= r.StartInsts || r.EndCycle < r.StartCycle:
			why = "spans no instructions or runs backwards in time"
		case min(r.StartInsts, r.StartCycle, r.Accesses, r.Misses, r.BusTransfers, r.BusBusy, slices.Min(r.Lost[:])) < 0:
			why = "has a negative count"
		case r.Misses > r.Accesses:
			why = "misses more lines than it references"
		default:
			continue
		}
		return fmt.Errorf("window %d %s: %+v", i, why, r)
	}
	return nil
}

// WindowSeries is the window store: one WindowRecord per engine sample
// interval. It is a sample-only probe: attach it via Config.Probe with a
// positive Config.SampleInterval and the engine's skip-ahead bulk path stays
// enabled, emitting interpolated snapshots at window boundaries that fall
// inside a bulk delta.
type WindowSeries struct {
	NopProbe

	recs []WindowRecord

	// base holds the counters at the open edge of the window under
	// construction; prevBase the open edge of the last closed window, so a
	// run-end sample that adds no instructions (trailing stall cycles, e.g.
	// a budget stop inside a bulk region) merges into the last window by
	// rebuilding it from prevBase.
	base     Snapshot
	prevBase Snapshot
}

// NewWindowSeries builds an empty window store.
func NewWindowSeries() *WindowSeries { return &WindowSeries{} }

// SampleOnlyProbe marks the series as observing via Sample alone.
func (s *WindowSeries) SampleOnlyProbe() {}

// Sample closes one window at snap, or — for a snapshot that adds no
// instructions but does advance other counters — re-closes the last window
// on the new edge (see the base/prevBase comment), so the last window ends
// on the run's final counters and nothing is dropped or double-counted.
func (s *WindowSeries) Sample(snap Snapshot) {
	if snap.Insts > s.base.Insts {
		s.recs = append(s.recs, snap.Since(s.base, len(s.recs)))
		s.prevBase = s.base
		s.base = snap
		return
	}
	if n := len(s.recs); n > 0 && snap != s.base {
		s.recs[n-1] = snap.Since(s.prevBase, n-1)
		s.base = snap
	}
}

// Len returns the number of closed windows.
func (s *WindowSeries) Len() int { return len(s.recs) }

// Records returns the closed windows, oldest first (nil when none closed).
func (s *WindowSeries) Records() []WindowRecord { return s.recs }
