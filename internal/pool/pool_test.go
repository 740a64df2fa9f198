package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"specfetch/internal/obs"
)

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

// TestPoolFirstErrorDeterministic: when several items fail, the pool always
// surfaces the lowest-indexed failure — indexes are dispensed in increasing
// order, so the lowest failing index is dispatched (and runs to completion)
// before any later failure can cancel it. Repeated to shake out schedules.
func TestPoolFirstErrorDeterministic(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		err := Run(4, 64, func(_, i int) error {
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

// TestPoolCancelsAfterFailure injects an error into a mid-list item and
// asserts the pool stops dispatching: of 128 items, only the handful in
// flight around the failure ever start, and the pool drains cleanly.
func TestPoolCancelsAfterFailure(t *testing.T) {
	const n, workers = 128, 4
	before := runtime.NumGoroutine()
	var started atomic.Int64
	tripped := make(chan struct{})
	err := Run(workers, n, func(_, i int) error {
		started.Add(1)
		if i == 2 {
			close(tripped)
			return errors.New("boom")
		}
		// Hold every other item until the failure has been recorded, then
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
		t.Errorf("pool started %d of %d items after a mid-list failure (want <= %d)",
			got, n, 3*workers)
	}
	waitGoroutines(t, before)
}

// TestPoolSerialStopsAtError: the one-lane fast path runs items in order on
// the calling goroutine and stops exactly at the first error.
func TestPoolSerialStopsAtError(t *testing.T) {
	var started atomic.Int64
	err := Run(1, 64, func(_, i int) error {
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
		t.Errorf("serial pool ran %d items, want exactly 6", got)
	}
}

// TestPoolPanicDrainsAndRethrows injects a panic into a mid-list item and
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
				t.Fatal("pool swallowed the item's panic")
			}
			ae, ok := r.(*obs.AuditError)
			if !ok || ae != sentinel {
				t.Fatalf("panic value = %v, want the injected *AuditError", r)
			}
		}()
		_ = Run(4, 32, func(_, i int) error {
			if i == 3 {
				panic(sentinel)
			}
			return nil
		})
		t.Fatal("pool returned instead of panicking")
	}()
	waitGoroutines(t, before)
}

// TestPoolErrorBeatsLaterPanic: failure ordering is by item index across
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
			return Run(4, 64, func(_, i int) error {
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
