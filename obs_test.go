// Integration tests for the observability layer through the public facade:
// a probed run must reproduce the unprobed Result exactly, the interval
// series must end on the run's own cumulative ISPI, and the exported
// timeline must be valid Chrome trace-event JSON.
package specfetch_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"specfetch"
)

func TestObservedRunMatchesResult(t *testing.T) {
	bench, err := specfetch.BuildBenchmark(specfetch.GCC())
	if err != nil {
		t.Fatal(err)
	}
	const insts = 150_000
	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Resume
	cfg.NextLinePrefetch = true

	base, err := specfetch.RunBenchmark(bench, cfg, insts, 1)
	if err != nil {
		t.Fatal(err)
	}

	rec := specfetch.NewEventRecorder(1 << 20)
	win := specfetch.NewWindowSeries()
	cfg.Probe = specfetch.MultiProbe(rec, win)
	cfg.SampleInterval = 10_000
	res, err := specfetch.RunBenchmark(bench, cfg, insts, 1)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(res, base) {
		t.Errorf("probed run diverged from base run:\nprobed %+v\n  base %+v", res, base)
	}

	// The acceptance bar: the series' final cumulative ISPI equals the
	// run's own TotalISPI.
	pts := specfetch.SeriesPoints(win.Records())
	if len(pts) == 0 {
		t.Fatal("no series points")
	}
	last := pts[len(pts)-1]
	if got, want := last.CumISPI, res.TotalISPI(); math.Abs(got-want) > 1e-9 {
		t.Errorf("final CumISPI = %.12f, want %.12f (run TotalISPI)", got, want)
	}
	if last.Insts != res.Insts || last.Cycle != res.Cycles.Int64() {
		t.Errorf("final point at %d insts / %d cycles, run ended at %d / %d",
			last.Insts, last.Cycle, res.Insts, res.Cycles)
	}

	if rec.Total() == 0 {
		t.Error("recorder saw no events")
	}

	// The timeline export must be well-formed trace-event JSON.
	var buf bytes.Buffer
	if err := specfetch.WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("timeline has no events")
	}
}

func TestRunWithProbe(t *testing.T) {
	bench, err := specfetch.BuildBenchmark(specfetch.Groff())
	if err != nil {
		t.Fatal(err)
	}
	const insts = 50_000
	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Optimistic
	cfg.MaxInsts = insts

	win := specfetch.NewWindowSeries()
	res, err := specfetch.RunWithProbe(cfg, bench.Image(), bench.NewReader(7, insts*2),
		specfetch.NewPredictor(), win, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	pts := specfetch.SeriesPoints(win.Records())
	if len(pts) == 0 {
		t.Fatal("no series points")
	}
	if got, want := pts[len(pts)-1].CumISPI, res.TotalISPI(); math.Abs(got-want) > 1e-9 {
		t.Errorf("final CumISPI = %.12f, want %.12f", got, want)
	}
}
