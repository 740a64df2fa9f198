package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"specfetch/internal/metrics"
)

func TestKindStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{FillDemand.String(), "demand"},
		{FillWrongPath.String(), "wrong_path"},
		{FillPrefetch.String(), "prefetch"},
		{FillKind(99).String(), "fill(99)"},
		{RedirectPHTMispredict.String(), "pht_mispredict"},
		{RedirectBTBMisfetch.String(), "btb_misfetch"},
		{RedirectBTBMispredict.String(), "btb_mispredict"},
		{RedirectKind(7).String(), "redirect(7)"},
		{EvFetchCycle.String(), "fetch_cycle"},
		{EvStall.String(), "stall"},
		{EventType(200).String(), "event(200)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestEventTypeTextRoundTrip(t *testing.T) {
	for ty := EventType(0); ty < NumEventTypes; ty++ {
		b, err := ty.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back EventType
		if err := back.UnmarshalText(b); err != nil {
			t.Fatalf("%s: %v", ty, err)
		}
		if back != ty {
			t.Errorf("round trip %s -> %s", ty, back)
		}
	}
	var bad EventType
	if err := bad.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("unmarshal of unknown name succeeded")
	}
}

// drive invokes every Probe callback once with distinct arguments.
func drive(p Probe) {
	p.FetchCycle(1, 4)
	p.MissStart(2, 10, false)
	p.MissStart(3, 11, true)
	p.FillComplete(7, 10, FillDemand)
	p.BusAcquire(2, 10, FillDemand)
	p.BusRelease(7)
	p.BranchResolve(8, 0x400, true, true)
	p.Redirect(9, RedirectPHTMispredict, 0x440)
	p.Prefetch(10, 12, 15)
	p.WindowStart(8, RedirectPHTMispredict, 11)
	p.WindowEnd(11)
	p.Stall(12, 14, metrics.RTICache, 8)
}

const driveEvents = 12

func TestRecorderRecordsAllCallbacks(t *testing.T) {
	r := NewEventRecorder(64)
	drive(r)
	evs := r.Events()
	if len(evs) != driveEvents {
		t.Fatalf("recorded %d events, want %d", len(evs), driveEvents)
	}
	// Spot-check a few flattenings.
	if evs[0].Type != EvFetchCycle || evs[0].Cy != 1 || evs[0].Issued != 4 {
		t.Errorf("fetch_cycle event = %+v", evs[0])
	}
	if evs[2].Type != EvMissStart || evs[2].Kind != "wrong_path" {
		t.Errorf("wrong-path miss event = %+v", evs[2])
	}
	if evs[11].Type != EvStall || evs[11].Comp != "rt_icache" || evs[11].Slots != 8 || evs[11].Until != 14 {
		t.Errorf("stall event = %+v", evs[11])
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewEventRecorder(4)
	for cy := metrics.Cycles(0); cy < 10; cy++ {
		r.FetchCycle(cy, 1)
	}
	if got, want := r.Total(), uint64(10); got != want {
		t.Errorf("Total = %d, want %d", got, want)
	}
	if got, want := r.Dropped(), uint64(6); got != want {
		t.Errorf("Dropped = %d, want %d", got, want)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len(Events) = %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Cy != want {
			t.Errorf("event %d cy = %d, want %d (oldest-first)", i, ev.Cy, want)
		}
	}
}

func TestRecorderDisable(t *testing.T) {
	r := NewEventRecorder(64)
	r.Disable(EvFetchCycle, EventType(250)) // out-of-range type is ignored
	drive(r)
	for _, ev := range r.Events() {
		if ev.Type == EvFetchCycle {
			t.Fatal("disabled fetch_cycle event recorded")
		}
	}
	if got := len(r.Events()); got != driveEvents-1 {
		t.Errorf("recorded %d events, want %d", got, driveEvents-1)
	}
}

func TestRecorderJSONLRoundTrip(t *testing.T) {
	r := NewEventRecorder(64)
	drive(r)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	var back []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		back = append(back, ev)
	}
	if !reflect.DeepEqual(back, r.Events()) {
		t.Errorf("JSONL round trip diverged:\n got %+v\nwant %+v", back, r.Events())
	}
}

func TestMultiFanOut(t *testing.T) {
	if Multi() != nil {
		t.Error("Multi() != nil")
	}
	if Multi(nil, nil) != nil {
		t.Error("Multi(nil, nil) != nil")
	}
	r := NewEventRecorder(64)
	if Multi(nil, r) != Probe(r) {
		t.Error("Multi(nil, p) did not unwrap to p")
	}

	r2 := NewEventRecorder(64)
	s := NewWindowSeries()
	m := Multi(r, r2, s)
	drive(m)
	if got, got2 := len(r.Events()), len(r2.Events()); got != driveEvents || got2 != driveEvents {
		t.Errorf("fan-out recorded %d/%d events, want %d each", got, got2, driveEvents)
	}
	// Sample must reach the sampler part through the composite.
	m.(Sampler).Sample(Snapshot{Cycle: 10, Insts: 4})
	if s.Len() != 1 {
		t.Errorf("sampler saw %d windows through Multi, want 1", s.Len())
	}
}

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("specfetch_simulations_total", "Completed simulation runs.")
	c.Inc()
	c.Add(2)
	if reg.Counter("specfetch_simulations_total", "ignored") != c {
		t.Error("Counter did not return the registered instance")
	}
	g := reg.Gauge("specfetch_ispi", "Last total ISPI.")
	g.Set(1.25)
	if got := g.Value(); got != 1.25 {
		t.Errorf("gauge = %v, want 1.25", got)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# HELP specfetch_ispi Last total ISPI.\n" +
		"# TYPE specfetch_ispi gauge\n" +
		"specfetch_ispi 1.25\n" +
		"# HELP specfetch_simulations_total Completed simulation runs.\n" +
		"# TYPE specfetch_simulations_total counter\n" +
		"specfetch_simulations_total 3\n"
	if buf.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge did not panic")
		}
	}()
	reg.Gauge("x", "")
}

func TestRegistryHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n", "things").Inc()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "n 1\n") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// seriesOf closes one window per snapshot and returns the series view.
func seriesOf(snaps ...Snapshot) []WindowRecord {
	s := NewWindowSeries()
	for _, snap := range snaps {
		s.Sample(snap)
	}
	return s.Records()
}

func TestSeriesPointsView(t *testing.T) {
	// One 10-cycle bus transfer inside the first interval, carried by the
	// snapshot's cumulative BusBusy counter.
	var lost1 metrics.Breakdown
	lost1[metrics.RTICache] = 40
	var lost2 metrics.Breakdown
	lost2[metrics.RTICache] = 40
	lost2[metrics.Branch] = 60
	pts := SeriesPoints(seriesOf(
		Snapshot{Cycle: 100, Insts: 200, Lost: lost1,
			RightPathAccesses: 50, RightPathMisses: 5, BusTransfers: 1, BusBusy: 10},
		Snapshot{Cycle: 150, Insts: 300, Lost: lost2,
			RightPathAccesses: 70, RightPathMisses: 5, BusTransfers: 1, BusBusy: 10}))
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	p0 := pts[0]
	if p0.Insts != 200 || p0.Cycle != 100 {
		t.Errorf("p0 position = %d/%d", p0.Insts, p0.Cycle)
	}
	if want := 200.0 / 100.0; p0.IPC != want {
		t.Errorf("p0 IPC = %v, want %v", p0.IPC, want)
	}
	if want := 40.0 / 200.0; p0.ISPI != want || p0.CompISPI[metrics.RTICache] != want {
		t.Errorf("p0 ISPI = %v comp %v, want %v", p0.ISPI, p0.CompISPI[metrics.RTICache], want)
	}
	if want := 100 * 5.0 / 50.0; p0.MissPct != want {
		t.Errorf("p0 MissPct = %v, want %v", p0.MissPct, want)
	}
	if want := 100 * 10.0 / 100.0; p0.BusOccupancyPct != want {
		t.Errorf("p0 BusOccupancyPct = %v, want %v", p0.BusOccupancyPct, want)
	}

	p1 := pts[1]
	if want := 60.0 / 100.0; p1.ISPI != want || p1.CompISPI[metrics.Branch] != want {
		t.Errorf("p1 ISPI = %v, want %v", p1.ISPI, want)
	}
	if want := lost2.TotalISPI(300); p1.CumISPI != want {
		t.Errorf("p1 CumISPI = %v, want %v", p1.CumISPI, want)
	}
	if p1.MissPct != 0 {
		t.Errorf("p1 MissPct = %v, want 0 (no new accesses)", p1.MissPct)
	}
}

// TestSeriesPointsRunEndMerge covers the run ending exactly on a sample
// boundary: the final engine sample adds stall slots but no instructions and
// must fold into the last point so CumISPI matches the run's total.
func TestSeriesPointsRunEndMerge(t *testing.T) {
	var lost1 metrics.Breakdown
	lost1[metrics.Branch] = 10
	var lost2 metrics.Breakdown
	lost2[metrics.Branch] = 10
	lost2[metrics.WrongICache] = 20
	first := Snapshot{Cycle: 100, Insts: 100, Lost: lost1}
	end := Snapshot{Cycle: 110, Insts: 100, Lost: lost2} // run-end, zero new insts

	pts := SeriesPoints(seriesOf(first, end))
	if len(pts) != 1 {
		t.Fatalf("got %d points, want 1 (merged)", len(pts))
	}
	p := pts[0]
	if p.Cycle != 110 {
		t.Errorf("merged point cycle = %d, want 110", p.Cycle)
	}
	if want := lost2.TotalISPI(100); p.CumISPI != want {
		t.Errorf("CumISPI = %v, want %v", p.CumISPI, want)
	}
	if want := 30.0 / 100.0; p.ISPI != want {
		t.Errorf("ISPI = %v, want %v", p.ISPI, want)
	}

	// An identical snapshot (nothing advanced) must not change anything.
	if got := SeriesPoints(seriesOf(first, end, end)); len(got) != 1 || got[0] != p {
		t.Errorf("no-op sample changed the series: %+v", got)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	var lost metrics.Breakdown
	lost[metrics.RTICache] = 50
	rs := seriesOf(Snapshot{Cycle: 75, Insts: 100, Lost: lost, RightPathAccesses: 25, RightPathMisses: 1})

	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, rs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV lines = %d, want 2:\n%s", len(lines), buf.String())
	}
	wantHeader := "insts,cycle,ipc,ispi,cum_ispi,ispi_branch_full,ispi_branch,ispi_force_resolve,ispi_bus,ispi_rt_icache,ispi_wrong_icache,miss_pct,bus_occupancy_pct"
	if lines[0] != wantHeader {
		t.Errorf("header = %q\nwant     %q", lines[0], wantHeader)
	}
	cols := strings.Split(lines[1], ",")
	if len(cols) != len(strings.Split(wantHeader, ",")) {
		t.Fatalf("row has %d columns, header %d", len(cols), len(strings.Split(wantHeader, ",")))
	}
	if cols[0] != "100" || cols[1] != "75" {
		t.Errorf("row position = %s,%s", cols[0], cols[1])
	}
}

func TestWriteSeriesJSON(t *testing.T) {
	// Empty series must still be a JSON array.
	var empty bytes.Buffer
	if err := WriteSeriesJSON(&empty, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(empty.String()); got != "[]" {
		t.Errorf("empty series = %q, want []", got)
	}

	var lost metrics.Breakdown
	lost[metrics.Bus] = 8
	rs := seriesOf(Snapshot{Cycle: 50, Insts: 64, Lost: lost})
	var buf bytes.Buffer
	if err := WriteSeriesJSON(&buf, rs); err != nil {
		t.Fatal(err)
	}
	var back []SeriesPoint
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if want := SeriesPoints(rs); len(back) != 1 || !reflect.DeepEqual(back[0], want[0]) {
		t.Errorf("JSON round trip diverged: %+v vs %+v", back, want)
	}
	if math.Abs(back[0].CumISPI-lost.TotalISPI(64)) > 1e-12 {
		t.Errorf("CumISPI = %v", back[0].CumISPI)
	}
}
