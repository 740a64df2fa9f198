package obs

import (
	"encoding/json"
	"testing"

	"specfetch/internal/metrics"
)

func snapAt(insts int64, cy metrics.Cycles, lost metrics.Breakdown,
	acc, miss int64, xfer uint64, busy metrics.Cycles) Snapshot {
	return Snapshot{
		Cycle: cy, Insts: insts, Lost: lost,
		RightPathAccesses: acc, RightPathMisses: miss,
		BusTransfers: xfer, BusBusy: busy,
	}
}

func TestWindowSeriesRecords(t *testing.T) {
	s := NewWindowSeries()
	var l1, l2 metrics.Breakdown
	l1[metrics.RTICache] = 40
	l2[metrics.RTICache] = 90
	l2[metrics.Branch] = 10
	s.Sample(snapAt(1000, 300, l1, 80, 4, 4, 30))
	s.Sample(snapAt(2000, 700, l2, 170, 10, 10, 90))

	recs := s.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	r0, r1 := recs[0], recs[1]
	if r0.Index != 0 || r1.Index != 1 {
		t.Errorf("indices %d,%d want 0,1", r0.Index, r1.Index)
	}
	// Consecutive records tile the run.
	if r0.EndInsts != r1.StartInsts || r0.EndCycle != r1.StartCycle {
		t.Errorf("records do not tile: %+v then %+v", r0, r1)
	}
	if r1.Insts() != 1000 || r1.Cycles() != 400 {
		t.Errorf("window 1 spans %d insts / %d cycles, want 1000/400", r1.Insts(), r1.Cycles())
	}
	if r1.Lost[metrics.RTICache] != 50 || r1.Lost[metrics.Branch] != 10 {
		t.Errorf("window 1 lost = %v, want miss 50 branch 10", r1.Lost)
	}
	if r1.TotalLost() != 60 {
		t.Errorf("TotalLost = %d, want 60", r1.TotalLost())
	}
	if got, want := r1.ISPI(), 0.06; got != want {
		t.Errorf("ISPI = %v, want %v", got, want)
	}
	if got, want := r1.CompISPI(metrics.Branch), 0.01; got != want {
		t.Errorf("CompISPI(branch) = %v, want %v", got, want)
	}
	if got, want := r1.MissPct(), 100*6.0/90.0; got != want {
		t.Errorf("MissPct = %v, want %v", got, want)
	}
	if got, want := r1.BusOccupancyPct(), 15.0; got != want {
		t.Errorf("BusOccupancyPct = %v, want %v", got, want)
	}
}

// TestWindowSeriesRunEndMerge: a trailing sample that adds no instructions
// (budget stop inside a stall or bulk region) re-closes the last window on
// the new edge instead of appending a degenerate zero-instruction window.
func TestWindowSeriesRunEndMerge(t *testing.T) {
	s := NewWindowSeries()
	var l1, l2 metrics.Breakdown
	l1[metrics.RTICache] = 40
	s.Sample(snapAt(1000, 300, l1, 80, 4, 4, 30))
	l2 = l1
	l2[metrics.RTICache] = 55
	s.Sample(snapAt(1000, 320, l2, 80, 4, 5, 42))

	recs := s.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1 (merged)", len(recs))
	}
	r := recs[0]
	if r.EndCycle != 320 || r.EndInsts != 1000 {
		t.Errorf("merged window ends at cycle %d / insts %d, want 320/1000", r.EndCycle, r.EndInsts)
	}
	if r.Lost[metrics.RTICache] != 55 || r.BusTransfers != 5 || r.BusBusy != 42 {
		t.Errorf("merged window = %+v; trailing counters not absorbed", r)
	}

	// A duplicate of the current edge is a no-op.
	s.Sample(snapAt(1000, 320, l2, 80, 4, 5, 42))
	if s.Len() != 1 {
		t.Errorf("idempotent re-sample grew the series to %d", s.Len())
	}
	// A run-end sample with no closed window yet is dropped, not stored.
	empty := NewWindowSeries()
	empty.Sample(snapAt(0, 50, metrics.Breakdown{}, 0, 0, 0, 0))
	if empty.Len() != 0 || empty.Records() != nil {
		t.Errorf("zero-instruction first sample produced a window")
	}
}

// TestWindowRecordJSON pins the wire shape: raw int64 fields under stable
// snake_case keys, no floats, no typed units.
func TestWindowRecordJSON(t *testing.T) {
	r := WindowRecord{
		Index: 3, StartInsts: 3000, EndInsts: 4000,
		StartCycle: 900, EndCycle: 1400,
		Accesses: 90, Misses: 6, BusTransfers: 6, BusBusy: 60,
	}
	r.Lost[metrics.RTICache] = 50
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"index", "start_insts", "end_insts", "start_cycle", "end_cycle",
		"lost", "accesses", "misses", "bus_transfers", "bus_busy",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("key %q missing from wire encoding %s", key, b)
		}
	}
	if len(m) != 10 {
		t.Errorf("wire encoding has %d keys, want 10: %s", len(m), b)
	}
	var back WindowRecord
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		t.Errorf("round trip: %+v != %+v", back, r)
	}
}

// TestCheckSeries: a series cut by WindowSeries passes, and each defect a
// foreign series can carry is rejected on its own.
func TestCheckSeries(t *testing.T) {
	var l1, l2 metrics.Breakdown
	l1[metrics.RTICache] = 40
	l2[metrics.RTICache] = 90
	s := NewWindowSeries()
	s.Sample(snapAt(1000, 300, l1, 80, 4, 4, 30))
	s.Sample(snapAt(2000, 700, l2, 170, 10, 10, 90))
	good := s.Records()
	if err := CheckSeries(good); err != nil {
		t.Fatalf("cut series rejected: %v", err)
	}
	if err := CheckSeries(nil); err != nil {
		t.Errorf("empty series rejected: %v", err)
	}
	for name, tamper := range map[string]func(rs []WindowRecord){
		"index":           func(rs []WindowRecord) { rs[1].Index = 7 },
		"gap in insts":    func(rs []WindowRecord) { rs[1].StartInsts++ },
		"gap in cycles":   func(rs []WindowRecord) { rs[1].StartCycle-- },
		"no instructions": func(rs []WindowRecord) { rs[1].EndInsts = rs[1].StartInsts },
		"backwards":       func(rs []WindowRecord) { rs[1].EndCycle = rs[1].StartCycle - 1 },
		"negative start":  func(rs []WindowRecord) { rs[0].StartInsts = -1 },
		"negative lost":   func(rs []WindowRecord) { rs[0].Lost[metrics.Branch] = -400 },
		"negative busy":   func(rs []WindowRecord) { rs[1].BusBusy = -1 },
		"misses":          func(rs []WindowRecord) { rs[0].Misses = rs[0].Accesses + 1 },
	} {
		rs := append([]WindowRecord(nil), good...)
		tamper(rs)
		if err := CheckSeries(rs); err == nil {
			t.Errorf("%s: defect accepted", name)
		}
	}
}
