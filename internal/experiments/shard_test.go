package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/hosttime"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
)

// renderAll builds one table and one figure from each executor shape —
// a flat policy work-list (Table 6), a flat figure work-list (Figure 1),
// and the characterization pipeline (Table 3) — and concatenates the bytes.
func renderAll(t *testing.T, opt Options) string {
	t.Helper()
	tab6, err := Table6(opt)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Figure1(opt)
	if err != nil {
		t.Fatal(err)
	}
	tab3, err := Table3(opt)
	if err != nil {
		t.Fatal(err)
	}
	return tab6.String() + "\n" + fig.String() + "\n" + tab3.String()
}

// TestDifferentialSerialParallelAudited is the sharding change's headline
// proof: for all five policies over a reduced benchmark grid, the rendered
// table/figure bytes are identical between the serial path (Workers=1),
// parallel pools of 2 and 7 workers (odd count to shake out ordering bugs),
// and an audited parallel sweep (sampled and full audit). Run under -race in
// CI at GOMAXPROCS 1 and 4.
func TestDifferentialSerialParallelAudited(t *testing.T) {
	base := Options{Insts: 50_000, Benchmarks: []string{"gcc", "groff"}}

	serial := base
	serial.Workers = 1
	want := renderAll(t, serial)

	for _, w := range []int{2, 7} {
		opt := base
		opt.Workers = w
		if got := renderAll(t, opt); got != want {
			t.Errorf("Workers=%d renders differently from the serial sweep", w)
		}
	}

	audited := base
	audited.Workers = 7
	audited.AuditSample = 4
	if got := renderAll(t, audited); got != want {
		t.Error("audited parallel sweep (sample=4) renders differently from the serial sweep")
	}
	fullAudit := base
	fullAudit.Workers = 2
	fullAudit.AuditSample = 1
	if got := renderAll(t, fullAudit); got != want {
		t.Error("fully audited sweep (sample=1) renders differently from the serial sweep")
	}
}

// renderTable6Figure1 builds the instrumentation differential's target
// artifacts: one flat policy work-list (Table 6) and one figure work-list
// (Figure 1).
func renderTable6Figure1(t *testing.T, opt Options) string {
	t.Helper()
	tab, err := Table6(opt)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Figure1(opt)
	if err != nil {
		t.Fatal(err)
	}
	return tab.String() + "\n" + fig.String()
}

// TestDifferentialInstrumentationNeutral proves host-side observability is
// observe-only: Table 6 + Figure 1 bytes are identical with span tracing
// and the metrics/histogram registry enabled vs. disabled, at Workers 1 and
// 4 (run under -race in CI). It also pins that the instrumentation actually
// fired: spans were recorded, one per cell, and the registry's cell-latency
// histogram saw every one of them.
func TestDifferentialInstrumentationNeutral(t *testing.T) {
	base := Options{Insts: 50_000, Benchmarks: []string{"gcc", "groff"}}

	for _, w := range []int{1, 4} {
		plain := base
		plain.Workers = w
		want := renderTable6Figure1(t, plain)

		inst := base
		inst.Workers = w
		inst.Spans = obs.NewSpanTracer()
		inst.Metrics = obs.NewRegistry()
		if got := renderTable6Figure1(t, inst); got != want {
			t.Errorf("Workers=%d: instrumented sweep renders differently from the plain sweep", w)
		}

		spans := inst.Spans.Spans()
		// Table 6: 2 benches x 5 policies; Figure 1: 2 benches x 5 policies.
		const wantCells = 2 * 5 * 2
		if len(spans) != wantCells {
			t.Errorf("Workers=%d: recorded %d spans, want %d (one per cell)", w, len(spans), wantCells)
		}
		for _, s := range spans {
			if s.Dur < 0 || s.Worker < 0 || s.Worker >= 4 {
				t.Errorf("Workers=%d: malformed span %+v", w, s)
			}
		}
		hist := inst.Metrics.Histogram("specfetch_cell_seconds", "")
		if got := hist.Count(); got != int64(len(spans)) {
			t.Errorf("Workers=%d: latency histogram saw %d observations, want %d", w, got, len(spans))
		}
	}
}

// TestSweepRowsGetTheirOwnCells: sweep hands each bench's rowOf exactly
// the results of that bench's cells, in cellsOf order, when the benches
// list different numbers of cells (one lists none), serially and on a
// pool; and a rowOf error reaches the caller.
func TestSweepRowsGetTheirOwnCells(t *testing.T) {
	opt := Options{Insts: 20_000, Benchmarks: []string{"doduc", "gcc", "groff"}}
	benches, err := buildAll(opt)
	if err != nil {
		t.Fatal(err)
	}
	pols := core.Policies()
	counts := []int{2, 0, 4}
	cellsOf := func(i int, b *synth.Bench) []runCell {
		var cells []runCell
		for k := 0; k < counts[i]; k++ {
			cells = append(cells, newCell(b, baseConfig(pols[(i+k)%len(pols)])))
		}
		return cells
	}
	// Each bench's cells run as a work-list of their own are the reference.
	want := make([][]distsweep.JobResult, len(benches))
	for i, b := range benches {
		if want[i], err = runCellsFull(Options{Insts: opt.Insts, Workers: 1}, cellsOf(i, b)); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 4} {
		o := opt
		o.Workers = workers
		got, err := sweep(o, benches, cellsOf, func(i int, b *synth.Bench, outs []distsweep.JobResult) ([]distsweep.JobResult, error) {
			if b != benches[i] {
				return nil, fmt.Errorf("rowOf(%d) got bench %s, want %s", i, b.Profile().Name, benches[i].Profile().Name)
			}
			return outs, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range benches {
			if len(got[i]) != counts[i] {
				t.Fatalf("workers=%d: bench %d got %d results, want %d", workers, i, len(got[i]), counts[i])
			}
			for k := range got[i] {
				if !reflect.DeepEqual(got[i][k], want[i][k]) {
					t.Errorf("workers=%d: bench %d result %d is not its own cell's", workers, i, k)
				}
			}
		}
	}

	boom := errors.New("row failed")
	_, err = sweep(opt, benches, cellsOf, func(i int, _ *synth.Bench, outs []distsweep.JobResult) (int, error) {
		if i == 1 {
			return 0, boom
		}
		return len(outs), nil
	})
	if !errors.Is(err, boom) {
		t.Errorf("sweep error = %v, want the rowOf error", err)
	}
}

// TestWorkersResolution pins the Options.Workers contract: 0 means
// GOMAXPROCS, negatives clamp to serial.
func TestWorkersResolution(t *testing.T) {
	if got := (Options{}).workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers=0 resolved to %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	if got := (Options{Workers: -3}).workers(); got != 1 {
		t.Errorf("Workers=-3 resolved to %d, want 1", got)
	}
	if got := (Options{Workers: 7}).workers(); got != 7 {
		t.Errorf("Workers=7 resolved to %d, want 7", got)
	}
}

// TestWindowCaptureOverhead gates the interval layer's host cost: the
// Table 6 work-list (gcc, groff at 200k, serial) with a 10000-instruction
// window series captured on every cell must run within 1.5x of the same
// work-list without one. Five pairs alternate which side runs first, and
// the fastest run of each side is compared, so one descheduled run cannot
// fail the gate.
func TestWindowCaptureOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("timing gate; the race detector distorts host time")
	}
	if testing.Short() {
		t.Skip("timing gate")
	}
	plain := Options{Insts: 200_000, Benchmarks: []string{"gcc", "groff"}, Workers: 1}
	benches, err := buildAll(plain)
	if err != nil {
		t.Fatal(err)
	}
	var cells []runCell
	for i, b := range benches {
		cells = append(cells, table6Cells(i, b)...)
	}
	capture := slices.Clone(cells)
	for i := range capture {
		capture[i].spec.Config.SampleInterval = 10_000
		capture[i].spec.CaptureWindows = true
	}
	sides := [2][]runCell{cells, capture}

	var best [2]time.Duration
	for pair := 0; pair < 5; pair++ {
		for k := 0; k < 2; k++ {
			side := (pair + k) % 2
			start := hosttime.Now()
			out, err := runCellsFull(plain, sides[side])
			d := hosttime.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if side == 1 {
				for i, c := range out {
					if len(c.WindowSeries) == 0 {
						t.Fatalf("capture run: cell %d returned no window series", i)
					}
				}
			}
			if best[side] == 0 || d < best[side] {
				best[side] = d
			}
		}
	}
	ratio := float64(best[1]) / float64(best[0])
	t.Logf("fastest of 5: plain %v, capture %v (%.2fx)", best[0], best[1], ratio)
	if ratio > 1.5 {
		t.Errorf("window capture costs %.2fx the plain run (plain %v, capture %v); bound 1.5x",
			ratio, best[0], best[1])
	}
}
