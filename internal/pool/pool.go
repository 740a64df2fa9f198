// Package pool is the one bounded lane pool of the project: the in-process
// sweep executor runs its work-lists on it, and a sweep worker runs each
// batch's jobs on it. Work item i always lands where the caller's fn puts
// it, so a caller that writes result i to slot i and reduces in index order
// gets the same bytes at any lane count.
package pool

import (
	"sync"
	"sync/atomic"
)

// failure records the lowest-indexed item that errored or panicked.
type failure struct {
	idx     int
	err     error
	payload any
	isPanic bool
}

// Run runs fn(lane, i) for i in [0,n) on up to lanes goroutines; lane is the
// 0-based index of the goroutine running the item (always 0 on the serial
// path), which span tracers use as a timeline track. With one lane (or
// fewer, or n <= 1) the items run in order on the caller's goroutine.
//
// Item indexes are dispensed in increasing order; after an item fails, no
// new item is started, already-running items finish, and the pool drains
// before reporting. The failure surfaced is the one with the smallest
// index — and that is deterministic: indexes are handed out in order, so the
// smallest failing index is always dispatched (and therefore observed) no
// matter how the scheduler interleaves the lanes. A panicking item (e.g. an
// *obs.AuditError from a sampled audit) is re-panicked on the caller's
// goroutine with its original value once the pool has drained.
func Run(lanes, n int, fn func(lane, i int) error) error {
	lanes = min(lanes, n)
	if lanes <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		stop atomic.Bool
		mu   sync.Mutex
		fail *failure
	)
	next.Store(-1)
	record := func(f failure) {
		mu.Lock()
		if fail == nil || f.idx < fail.idx {
			fail = &f
		}
		mu.Unlock()
		stop.Store(true)
	}
	runOne := func(lane, i int) {
		defer func() {
			if r := recover(); r != nil {
				record(failure{idx: i, payload: r, isPanic: true})
			}
		}()
		if err := fn(lane, i); err != nil {
			record(failure{idx: i, err: err})
		}
	}
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				runOne(lane, i)
			}
		}(lane)
	}
	wg.Wait()
	if fail == nil {
		return nil
	}
	if fail.isPanic {
		panic(fail.payload)
	}
	return fail.err
}
