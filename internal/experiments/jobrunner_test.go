package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/synth"
)

// jobSpec builds a worker spec on profile p at budget insts.
func jobSpec(t *testing.T, p synth.Profile, seed uint64, insts int64, cfg core.Config) distsweep.JobSpec {
	t.Helper()
	wc, err := distsweep.FromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return distsweep.JobSpec{Profile: p, Config: wc, Seed: seed, Insts: insts}
}

// freshJobResult is what a spec yields through simulateCell with no memo
// and no arena, on a bench built for this call alone.
func freshJobResult(t *testing.T, spec distsweep.JobSpec) distsweep.JobResult {
	t.Helper()
	b, err := synth.Build(spec.Profile)
	if err != nil {
		t.Fatal(err)
	}
	res, wins, err := simulateCell(runCell{b, spec}, Options{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return distsweep.JobResult{Result: res, Audit: res.AuditFinal(), WindowSeries: wins}
}

// workerSequence is a spec sequence that switches profile, seed and
// budget, returns to earlier streams, and crosses the capture, audit,
// reference-stepper, prefetch, 32K and depth-1 cells on one stream. It
// ends with a profile that shares gcc's name and stream seed but not its
// generator, right after a gcc cell on that seed and budget.
func workerSequence(t *testing.T) []distsweep.JobSpec {
	t.Helper()
	gcc, groff := synth.GCC(), synth.Groff()
	gccVariant := gcc
	gccVariant.NumFuncs += 7
	const insts = 40_000
	seedA, seedB := uint64(defaultStreamSeed), uint64(1001)

	captured := baseConfig(core.Resume)
	captured.SampleInterval = 5_000
	prefetch := baseConfig(core.Optimistic)
	prefetch.NextLinePrefetch = true
	big := baseConfig(core.Pessimistic)
	big.ICache = cacheConfig(32 * 1024)
	depth1 := baseConfig(core.Oracle)
	depth1.MaxUnresolved = 1
	reference := baseConfig(core.Resume)
	reference.StepMode = core.StepReference

	var specs []distsweep.JobSpec
	add := func(p synth.Profile, seed uint64, n int64, cfg core.Config, edit func(*distsweep.JobSpec)) {
		s := jobSpec(t, p, seed, n, cfg)
		if edit != nil {
			edit(&s)
		}
		specs = append(specs, s)
	}
	for _, p := range core.Policies() {
		add(gcc, seedA, insts, baseConfig(p), nil)
	}
	add(gcc, seedA, insts, captured, func(s *distsweep.JobSpec) { s.CaptureWindows = true })
	add(gcc, seedA, insts, baseConfig(core.Oracle), func(s *distsweep.JobSpec) { s.AuditSample = 3 })
	add(gcc, seedA, insts, reference, nil)
	add(gcc, seedA, insts, prefetch, nil)
	add(gcc, seedA, insts, big, nil)
	add(gcc, seedA, insts, depth1, nil)
	add(gcc, seedB, insts, baseConfig(core.Resume), nil)   // seed switch
	add(gcc, seedB, insts/2, baseConfig(core.Resume), nil) // budget switch
	add(groff, seedB, insts/2, prefetch, nil)              // profile switch
	add(gcc, seedB, insts/2, big, nil)                     // back to the stream groff displaced
	add(gcc, seedA, insts, depth1, nil)                    // back to a dropped stream
	add(groff, seedA, insts, captured, func(s *distsweep.JobSpec) { s.CaptureWindows = true })
	add(gcc, seedA, insts, baseConfig(core.Resume), nil)        // retained for the next spec
	add(gccVariant, seedA, insts, baseConfig(core.Resume), nil) // same name, another generator
	add(gccVariant, seedA, insts, reference, nil)
	add(gcc, seedA, insts, reference, nil)
	return specs
}

// TestJobRunnerMatchesFreshCells: one JobRunner driven through a sequence
// of specs (so it replays memoized streams and reuses one arena) returns,
// for every spec, exactly what a fresh simulateCell returns with no memo
// and no arena.
func TestJobRunnerMatchesFreshCells(t *testing.T) {
	t.Parallel()
	r := NewJobRunner(nil)
	for i, spec := range workerSequence(t) {
		got, err := r.Run(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if want := freshJobResult(t, spec); !reflect.DeepEqual(got, want) {
			t.Errorf("spec %d (%s, seed %d, %d insts, %v): worker result differs from a fresh cell",
				i, spec.Profile.Name, spec.Seed, spec.Insts, spec.Config.Policy)
		}
	}
	if len(r.cache.streams) != 1 || len(r.cache.arenas) != 1 {
		t.Errorf("idle runner retains %d streams and %d arenas, want 1 and 1", len(r.cache.streams), len(r.cache.arenas))
	}
}

// TestJobRunnerConcurrent: four goroutines share one JobRunner, each
// running the whole sequence from a different offset so their streams
// interleave, and every result equals the serial run's.
func TestJobRunnerConcurrent(t *testing.T) {
	t.Parallel()
	specs := workerSequence(t)
	serial := NewJobRunner(nil)
	want := make([]distsweep.JobResult, len(specs))
	for i, spec := range specs {
		res, err := serial.Run(spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		want[i] = res
	}
	const goroutines = 4
	r := NewJobRunner(nil)
	errs := make([][]error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range specs {
				i := (k + g*len(specs)/goroutines) % len(specs)
				got, err := r.Run(specs[i])
				if err == nil && !reflect.DeepEqual(got, want[i]) {
					err = fmt.Errorf("result differs from the serial run")
				}
				if err != nil {
					errs[g] = append(errs[g], fmt.Errorf("spec %d: %w", i, err))
				}
			}
		}()
	}
	wg.Wait()
	for g, es := range errs {
		for _, err := range es {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	if len(r.cache.arenas) > goroutines {
		t.Errorf("%d arenas for %d concurrent callers", len(r.cache.arenas), goroutines)
	}
	if len(r.cache.streams) != 1 {
		t.Errorf("idle runner retains %d streams, want 1", len(r.cache.streams))
	}
}

// TestJobRunnerReuseAllocs: once a runner has run a stream, another cell
// on that stream allocates neither the stream again nor the engine's
// 128 KiB bulk-issue memo table nor the cache arrays. What remains is the
// predictor, the Result and the run's bookkeeping: less than one cache
// build for the cell's geometry allocates on its own.
func TestJobRunnerReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	spec := jobSpec(t, synth.GCC(), defaultStreamSeed, 200_000, baseConfig(core.Resume))
	r := NewJobRunner(nil)
	for range 2 {
		if _, err := r.Run(spec); err != nil {
			t.Fatal(err)
		}
	}
	warm := allocated(func() {
		if _, err := r.Run(spec); err != nil {
			t.Fatal(err)
		}
	})
	limit := allocated(func() { runtime.KeepAlive(cache.MustNew(spec.Config.ICache)) })
	t.Logf("warm run allocated %d bytes; one cache build allocates %d", warm, limit)
	if warm >= limit {
		t.Errorf("a repeated-stream Run allocated %d bytes, want less than the %d of one cache build", warm, limit)
	}
}

// TestPoolReuseAllocs is TestJobRunnerReuseAllocs for the in-process pool:
// a serial work-list of n cells on one stream allocates, past its first
// cell, less than one cache build per cell. The pool walks the stream once
// and replays it, and one arena carries the engine's storage from cell to
// cell.
func TestPoolReuseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	opt := Options{Insts: 200_000, Benchmarks: []string{"gcc"}, Workers: 1}
	benches, err := buildAll(opt)
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	pols := core.Policies()
	cells := make([]runCell, n)
	for i := range cells {
		cells[i] = newCell(benches[0], baseConfig(pols[i%len(pols)]))
	}
	run := func(cs []runCell) func() {
		return func() {
			if _, err := runCells(opt, cs); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(cells)() // warm the allocator's size classes
	first := allocated(run(cells[:1]))
	all := allocated(run(cells))
	limit := allocated(func() { runtime.KeepAlive(cache.MustNew(cells[0].spec.Config.ICache)) })
	t.Logf("%d cells allocated %d bytes, the first alone %d; one cache build allocates %d", n, all, first, limit)
	if all-first >= (n-1)*limit {
		t.Errorf("%d cells after the first allocated %d bytes, want less than %d cache builds (%d bytes)",
			n-1, all-first, n-1, (n-1)*limit)
	}
}

// allocated returns the bytes run allocates on the heap.
func allocated(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
