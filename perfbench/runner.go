package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"specfetch/internal/experiments"
	"specfetch/internal/hosttime"
	"specfetch/internal/obs"
)

// measured is one timed pass.
type measured struct {
	out   passResult
	wall  time.Duration
	alloc uint64
	peak  uint64
}

// timedPass runs one pass from a freshly collected heap and measures its
// host wall time, heap bytes allocated, and peak resident memory.
func timedPass(inst *instance, env passEnv) (measured, error) {
	// Collect, and return free memory to the OS, so every pass starts from
	// the same heap and the same resident floor.
	debug.FreeOSMemory()
	alloc0 := heapAllocBytes()
	rs := startResidentSampler()
	start := hosttime.Now()
	out, err := inst.pass(env)
	wall := hosttime.Since(start)
	m := measured{out: out, wall: wall, alloc: heapAllocBytes() - alloc0}
	m.peak = rs.stop()
	return m, err
}

// residentSampler tracks the peak resident memory of the Go runtime (memory
// mapped from the OS minus memory released back to it) while a pass runs.
// The kernel's peak RSS covers the process's whole life, so one pass whose
// collection started late set it for the run: it moved by a third between
// sets of runs of the same code.
type residentSampler struct {
	quit chan struct{}
	peak chan uint64
}

func startResidentSampler() *residentSampler {
	s := &residentSampler{quit: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		// One sample slice for the whole pass: a fresh one per tick would
		// add the sampler's own allocations, which grow with the pass's
		// length, to alloc_mb.
		samples := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
		}
		peak := resident(samples)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				s.peak <- max(peak, resident(samples))
				return
			case <-tick.C:
				peak = max(peak, resident(samples))
			}
		}
	}()
	return s
}

// stop ends sampling and returns the peak once the sampler has exited.
func (s *residentSampler) stop() uint64 {
	close(s.quit)
	return <-s.peak
}

// resident reads the runtime's mapped and released memory into s, which
// names them in that order, and returns their difference.
func resident(s []metrics.Sample) uint64 {
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

// setupsPerPass is how many times a plain run sets the workload up before
// each pass; the last set-up is the one the pass runs on.
const setupsPerPass = 5

// runPlain is the plain run: until budget has elapsed, set the workload up
// afresh and run one pass. The calibration kernel (calib.go) is timed before
// the first pass and after every pass; each pass's wall time, and each of its
// set-ups', is scaled by the kernel's nominal time over the mean of the two
// calibration points around it, and the run reports the medians of the
// scaled times. A median over a time budget does not depend on how many
// passes fit, so a slower and a faster program are estimated alike. When
// profile is not nil, it receives a CPU profile of the passes.
func runPlain(w workload, sz sizes, seed uint64, budget time.Duration, stored digestFile, profile io.Writer) (result, error) {
	if profile != nil {
		if err := pprof.StartCPUProfile(profile); err != nil {
			return result{}, err
		}
		defer pprof.StopCPUProfile()
	}
	chk := newChecker(w, seed, stored)
	var setups, walls, raw, allocs, peaks []float64
	var insts int64
	cal := []time.Duration{calibPoint()}
	start := hosttime.Now()
	// A pass starts only if one as long as the last would end within budget,
	// so a run lasts no longer than budget plus its first pass.
	var last time.Duration
	for n := 0; n == 0 || hosttime.Since(start)+last <= budget; n++ {
		runtime.GC()
		t0 := hosttime.Now()
		var inst *instance
		var sets []time.Duration
		for i := 0; i < setupsPerPass; i++ {
			if inst != nil {
				inst.close()
			}
			s0 := hosttime.Now()
			var err error
			if inst, err = w.setup(sz, seed); err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
			sets = append(sets, hosttime.Since(s0))
		}
		m, err := timedPass(inst, passEnv{})
		inst.close()
		last = hosttime.Since(t0)
		cal = append(cal, calibPoint())
		scale := calibNominal.Seconds() / ((cal[n] + cal[n+1]).Seconds() / 2)
		for _, s := range sets {
			setups = append(setups, s.Seconds()*scale)
		}
		chk.pass(m.out.outputs, err)
		if err != nil {
			continue
		}
		if len(walls) == 0 {
			insts = m.out.insts
		}
		if m.out.insts != insts {
			return result{}, fmt.Errorf("pass %d ran %d instructions, the first ran %d", n, m.out.insts, insts)
		}
		walls = append(walls, m.wall.Seconds()*scale)
		raw = append(raw, m.wall.Seconds())
		allocs = append(allocs, float64(m.alloc)/(1<<20))
		peaks = append(peaks, float64(m.peak)/(1<<20))
	}
	if len(walls) == 0 {
		return result{}, fmt.Errorf("no pass completed")
	}
	// After the passes: the model-error run's heap would otherwise raise the
	// resident floor every pass is measured from.
	modelErr, err := modelError(sz.paperInsts)
	if err != nil {
		return result{}, fmt.Errorf("model error: %w", err)
	}
	calMs := make([]float64, len(cal))
	for i, c := range cal {
		calMs[i] = ms(c)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d passes, wall %s s, calibrated %s s; calibration points %s ms; peak resident %s MiB\n",
		w.name, len(walls), formatList(raw), formatList(walls), formatList(calMs), formatList(peaks))
	wall := median(walls)
	return newResult(chk, endToEnd, map[string]float64{
		"setup_s":         median(setups),
		"wall_s":          wall,
		"sim_minst_per_s": float64(insts) / 1e6 / wall,
		"alloc_mb":        median(allocs),
		"peak_rss_mb":     median(peaks),
		"model_err_pct":   modelErr,
	})
}

// modelError is the mean absolute difference, in percentage points, between
// the simulated Table 3 8K and 32K miss rates and the paper's.
func modelError(insts int64) (float64, error) {
	rows, err := experiments.Table3Data(experiments.Options{Insts: insts, Workers: 1})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, r := range rows {
		sum += math.Abs(r.Miss8K-r.Paper.Miss8K) + math.Abs(r.Miss32K-r.Paper.Miss32K)
	}
	return sum / float64(2*len(rows)), nil
}

// runTraced is the traced run: two plain passes, one pass with host spans and
// metrics attached, one capture pass that yields the cells as JobSpecs, and
// a replay of those cells layer by layer. Every pass is checked like a
// plain run's, and the replay checks that each replayed cell reproduces the
// workload's own result.
func runTraced(w workload, sz sizes, seed uint64, traceOut string, stored digestFile) (result, error) {
	inst, err := w.setup(sz, seed)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	chk := newChecker(w, seed, stored)

	// The first pass of a process pays for growing the heap; the plain pass
	// the traced one is compared with must not.
	var plain measured
	for i := 0; i < 2; i++ {
		plain, err = timedPass(inst, passEnv{})
		chk.pass(plain.out.outputs, err)
		if err != nil {
			return result{}, err
		}
	}

	spans, reg := obs.NewSpanTracer(), obs.NewRegistry()
	spans.SetSection("traced pass")
	gc0 := gcStats()
	traced, err := timedPass(inst, passEnv{spans: spans, metrics: reg})
	gc1 := gcStats()
	chk.pass(traced.out.outputs, err)
	if err != nil {
		return result{}, err
	}
	passSpans := spans.Spans()

	spans.SetSection("capture")
	lo := spans.Len()
	cells, capOut, uncovered, err := capture(inst, spans)
	chk.pass(capOut.outputs, err)
	if err != nil {
		return result{}, fmt.Errorf("capture: %w", err)
	}
	captureSpans := spans.Spans()[lo:]

	spans.SetSection("replay")
	lm, checked, bad := replay(cells, spans)
	chk.extra(checked, bad)

	if err := writeTrace(traceOut, spans.Spans(), traced.out.fleet); err != nil {
		return result{}, err
	}

	// Per-cell host cost from the traced pass: the executor's cell spans
	// (ablation-style "/row" spans and dispatch spans are not cells), or
	// the worker's per-job spans for the fleet.
	var cellNs []float64
	var spanned time.Duration
	var batches []float64
	for _, sp := range passSpans {
		spanned += sp.Dur
		switch {
		case strings.HasPrefix(sp.Name, "dispatch/"):
			batches = append(batches, ms(sp.Dur))
		case !strings.HasSuffix(sp.Name, "/row"):
			cellNs = append(cellNs, float64(sp.Dur.Nanoseconds())/float64(traced.out.budget))
		}
	}
	for _, p := range traced.out.fleet {
		for _, sp := range p.Spans {
			cellNs = append(cellNs, float64(sp.Dur.Nanoseconds())/float64(traced.out.budget))
		}
	}
	for _, sp := range captureSpans {
		if strings.HasPrefix(sp.Name, "dispatch/") {
			batches = append(batches, ms(sp.Dur))
		}
	}
	retries, locals := traced.out.retries, traced.out.localFallbacks
	if !inst.native {
		retries, locals = capOut.retries, capOut.localFallbacks
	}

	lm["synth.build_ms"] = ms(inst.build)
	lm["experiments.cell_ns_per_inst_p50"] = quantile(cellNs, 0.5)
	lm["experiments.cell_ns_per_inst_p90"] = quantile(cellNs, 0.9)
	lm["experiments.cells"] = float64(len(cellNs))
	lm["experiments.pool_overhead_ms"] = ms(traced.wall - spanned - traced.out.render)
	lm["experiments.render_ms"] = ms(traced.out.render)
	lm["experiments.uncovered_cells"] = float64(uncovered)
	lm["distsweep.batch_ms_p50"] = quantile(batches, 0.5)
	lm["distsweep.batch_ms_p90"] = quantile(batches, 0.9)
	lm["distsweep.retries"] = float64(retries)
	lm["distsweep.local_fallbacks"] = float64(locals)
	lm["runtime.gc_cpu_s"] = gc1.cpu - gc0.cpu
	lm["runtime.gc_cycles"] = float64(gc1.cycles - gc0.cycles)
	lm["trace_overhead_pct"] = 100 * (traced.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: %s: traced %d cells (%d uncovered), %d replay checks; trace in %s\n",
		w.name, len(cells), uncovered, checked, traceOut)
	return newResult(chk, perLayer, lm)
}

// writeTrace writes the traced run's host spans, with the fleet's worker
// tracks, as one Chrome trace.
func writeTrace(path string, spans []obs.HostSpan, fleet []obs.ProcessSpans) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteCombinedTrace(f, nil, spans, fleet...); err != nil {
		_ = f.Close() // the write error is the one to report
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// ---- host measurements ----------------------------------------------------

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

type gcSample struct {
	cpu    float64
	cycles uint64
}

func gcStats() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var g gcSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		g.cpu = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.cycles = s[1].Value.Uint64()
	}
	return g
}

// ---- statistics -----------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func formatList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}
