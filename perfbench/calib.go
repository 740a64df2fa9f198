package main

import (
	"time"

	"specfetch/internal/hosttime"
)

// Host-speed calibration.
//
// On a shared host the simulator's speed moves with other tenants' load: the
// same reference-audit pass took 0.60 s and 1.15 s within one minute, in user
// CPU time, with no change in system time, page faults or context switches,
// and the median pass of a 30-second run moved by up to a third between runs.
// What slows is code that predicts branches badly. Timed in alternation with
// engine cells for five minutes, a kernel of data-dependent branches over a
// 16 KiB table correlated 0.90-0.95 with the engine's cells over 5-to-25-second
// blocks, and dividing by it cut the blocks' spread from 0.055-0.12 to
// 0.023-0.045; an L1 integer-hash loop and pointer chases over 2 MiB and
// 64 MiB correlated 0.1-0.5 and did not help. So a plain run times this kernel
// before the first pass and after every pass, and scales each pass's wall
// time by the kernel's nominal time over its measured time (runPlain). No
// change to the program can move the kernel.

// calibTable is the kernel's input: a fixed pseudo-random byte table, so its
// branches are unpredictable and the kernel is the same on every run.
var calibTable = func() []byte {
	t := make([]byte, 16<<10)
	x := uint64(3)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = byte(x)
	}
	return t
}()

// calibSink keeps the kernel's result live.
var calibSink uint64

// calibKernel walks the table reps times, taking a data-dependent branch per
// byte.
func calibKernel(reps int) {
	s := uint64(0)
	for r := 0; r < reps; r++ {
		for _, b := range calibTable {
			if b&1 == 1 {
				s += uint64(b)
			} else {
				s ^= uint64(b) << 3
			}
		}
	}
	calibSink += s
}

const (
	// calibReps sizes one timing of the kernel: 3.7-5.2 ms on the shared
	// 2-vCPU Xeon VM the benchmark was tuned on.
	calibReps = 50
	// calibRuns is how many timings make one calibration point; the point is
	// their median.
	calibRuns = 5
	// calibNominal is a round figure for the kernel's time on that VM.
	// Scaling by it keeps calibrated times close to seconds on that host.
	calibNominal = 4 * time.Millisecond
)

// calibPoint times the kernel calibRuns times and returns the median wall
// time of a timing. Wall time, like the passes it calibrates: time the
// hypervisor gives other tenants (steal) stretches both alike.
func calibPoint() time.Duration {
	walls := make([]float64, calibRuns)
	for i := range walls {
		start := hosttime.Now()
		calibKernel(calibReps)
		walls[i] = float64(hosttime.Since(start))
	}
	return time.Duration(median(walls))
}
