package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"specfetch/internal/hosttime"
	"specfetch/internal/obs"
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

// waitGoroutines yields until the goroutine count settles back to the
// pre-pool level (small slack for runtime/test-harness background noise).
// Yield-based rather than clock-based so the simlint determinism gate,
// which covers these test files too, stays clean.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("goroutine leak: %d before the pool, %d after drain",
		before, runtime.NumGoroutine())
}

// TestPoolFirstErrorDeterministic: when several cells fail, the pool always
// surfaces the lowest-indexed failure — indexes are dispensed in increasing
// order, so the lowest failing index is dispatched (and runs to completion)
// before any later failure can cancel it. Repeated to shake out schedules.
func TestPoolFirstErrorDeterministic(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		err := pool(Options{Workers: 4}, 64, func(_, i int) error {
			if i == 1 || i == 3 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 1" {
			t.Fatalf("trial %d: err = %v, want boom 1", trial, err)
		}
	}
}

// TestPoolCancelsAfterFailure injects an error into a mid-list cell and
// asserts the pool stops dispatching: of 128 cells, only the handful in
// flight around the failure ever start, and the pool drains cleanly.
func TestPoolCancelsAfterFailure(t *testing.T) {
	const n, workers = 128, 4
	before := runtime.NumGoroutine()
	var started atomic.Int64
	tripped := make(chan struct{})
	err := pool(Options{Workers: workers}, n, func(_, i int) error {
		started.Add(1)
		if i == 2 {
			close(tripped)
			return errors.New("boom")
		}
		// Hold every other cell until the failure has been recorded, then
		// give the stop flag a moment to land before finishing.
		<-tripped
		for y := 0; y < 100; y++ {
			runtime.Gosched()
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v, want boom", err)
	}
	if got := started.Load(); got > 3*workers {
		t.Errorf("pool started %d of %d cells after a mid-list failure (want <= %d)",
			got, n, 3*workers)
	}
	waitGoroutines(t, before)
}

// TestPoolSerialStopsAtError: the Workers=1 fast path runs cells in order on
// the calling goroutine and stops exactly at the first error.
func TestPoolSerialStopsAtError(t *testing.T) {
	var started atomic.Int64
	err := pool(Options{Workers: 1}, 64, func(_, i int) error {
		started.Add(1)
		if i == 5 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("err = %v", err)
	}
	if got := started.Load(); got != 6 {
		t.Errorf("serial pool ran %d cells, want exactly 6", got)
	}
}

// TestPoolPanicDrainsAndRethrows injects a panic into a mid-list cell and
// asserts the pool drains its workers and re-panics on the caller's
// goroutine with the original value (an *obs.AuditError survives intact, as
// the sampled-audit path requires).
func TestPoolPanicDrainsAndRethrows(t *testing.T) {
	sentinel := &obs.AuditError{Cycle: 42, Check: "injected", Detail: "fault-path test"}
	before := runtime.NumGoroutine()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("pool swallowed the cell's panic")
			}
			ae, ok := r.(*obs.AuditError)
			if !ok || ae != sentinel {
				t.Fatalf("panic value = %v, want the injected *AuditError", r)
			}
		}()
		_ = pool(Options{Workers: 4}, 32, func(_, i int) error {
			if i == 3 {
				panic(sentinel)
			}
			return nil
		})
		t.Fatal("pool returned instead of panicking")
	}()
	waitGoroutines(t, before)
}

// TestPoolErrorBeatsLaterPanic: failure ordering is by cell index across
// kinds — an error at index 1 wins over a panic at index 3, so the pool
// returns the error instead of re-panicking.
func TestPoolErrorBeatsLaterPanic(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: pool panicked with %v; the index-1 error should win", trial, r)
				}
			}()
			return pool(Options{Workers: 4}, 64, func(_, i int) error {
				if i == 1 {
					return errors.New("boom 1")
				}
				if i == 3 {
					panic("late panic")
				}
				return nil
			})
		}()
		if err == nil || err.Error() != "boom 1" {
			t.Fatalf("trial %d: err = %v, want boom 1", trial, err)
		}
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
	cells := table6Cells(benches)
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
					if len(c.windows) == 0 {
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
