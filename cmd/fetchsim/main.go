// Command fetchsim runs one fetch-policy simulation and prints the ISPI
// breakdown, cache behaviour, and memory traffic. With the observability
// flags it additionally records the run: -events dumps the probe event
// stream as JSONL, -timeline renders a Chrome trace-event (Perfetto)
// timeline with interval counter tracks (ISPI, miss rate, bus occupancy,
// per-component stalls) merged in, and -series writes the interval
// time-series of ISPI, miss rate, and bus occupancy. The counter tracks and
// the series are two views of one window store cut every -interval
// instructions.
//
// Usage:
//
//	fetchsim -bench gcc -policy resume -insts 2000000
//	fetchsim -bench groff -policy pessimistic -penalty 20 -prefetch
//	fetchsim -bench porky -policy adaptive -strategy phase:6 -adapt-interval 2500 -flush 15000
//	fetchsim -bench li -policy optimistic -cache 32768 -depth 2
//	fetchsim -image prog.img -trace prog.trc -policy resume
//	fetchsim -bench gcc -policy resume -timeline out.json -series ispi.csv
//	fetchsim -bench gcc -policy resume -audit-sample 16
//	fetchsim -bench gcc -policy resume -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/experiments"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/program"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

func main() {
	var (
		benchName = flag.String("bench", "gcc", "benchmark profile name (see -list)")
		imagePath = flag.String("image", "", "static image file (with -trace, replaces -bench)")
		tracePath = flag.String("trace", "", "trace file to replay against -image")
		policyStr = flag.String("policy", "resume", "fetch policy: oracle|optimistic|resume|pessimistic|decode|adaptive")
		insts     = flag.Int64("insts", 2_000_000, "correct-path instructions to simulate")
		penalty   = flag.Int("penalty", 5, "I-cache miss penalty in cycles")
		cacheSz   = flag.Int("cache", 8*1024, "I-cache size in bytes")
		depth     = flag.Int("depth", 4, "speculation depth (max unresolved conditional branches)")
		width     = flag.Int("width", 4, "fetch width (instructions per cycle)")
		prefetch  = flag.Bool("prefetch", false, "enable next-line prefetching")
		seed      = flag.Uint64("seed", 1, "dynamic trace stream seed")
		stepMode  = flag.String("stepmode", "skipahead", "engine core: skipahead (next-event, default) or reference (cycle-by-cycle); results are bit-identical")
		list      = flag.Bool("list", false, "list benchmark profiles and exit")

		strategy = flag.String("strategy", "phase:6", "chooser strategy for -policy adaptive: phase:<period>|pinned:<policy>")
		adaptIv  = flag.Int64("adapt-interval", 10_000, "decision-window width in instructions for -policy adaptive")
		flushIv  = flag.Int64("flush", 0, "invalidate the I-cache every N correct-path instructions, modeling periodic context switches (0 = never)")

		eventsPath   = flag.String("events", "", "write the probe event stream as JSONL to this file")
		timelinePath = flag.String("timeline", "", "write a Chrome trace-event (Perfetto) timeline to this file")
		seriesPath   = flag.String("series", "", "write the interval time-series to this file (.json extension selects JSON, anything else CSV)")
		interval     = flag.Int64("interval", 10_000, "instructions per -series sample and -timeline counter window")
		eventCap     = flag.Int("event-cap", 1<<20, "ring-buffer capacity for -events/-timeline; oldest events drop beyond it")
		audit        = flag.Bool("audit", false, "attach the runtime accounting auditor; any invariant violation aborts with a cycle-stamped diagnosis")
		auditSample  = flag.Int("audit-sample", 0, "audit only every Nth pipeline window (1 = every window, implies -audit); the final identities stay exact at any rate")
		cpuProf      = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf      = flag.String("memprofile", "", "write a heap profile to this file on successful exit")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	set["events"], set["timeline"], set["series"] = *eventsPath != "", *timelinePath != "", *seriesPath != ""
	if err := checkFlags(set); err != nil {
		fmt.Fprintf(os.Stderr, "fetchsim: %v\n", err)
		os.Exit(2)
	}

	// Host-side profiling of the simulator itself. Profiles are written when
	// the run completes; error paths exit without them, like `go test`.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		fail("cpuprofile", err)
		fail("cpuprofile", pprof.StartCPUProfile(f))
		defer func() {
			pprof.StopCPUProfile()
			fail("cpuprofile", f.Close())
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			fail("memprofile", err)
			runtime.GC() // up-to-date live-object statistics
			fail("memprofile", pprof.WriteHeapProfile(f))
			fail("memprofile", f.Close())
		}()
	}

	if *list {
		for _, p := range synth.Profiles() {
			pf("%-8s %-8s %s\n", p.Name, p.Lang, p.Description)
		}
		return
	}

	pol, err := core.ParsePolicy(*policyStr)
	fail("", err)
	mode, err := core.ParseStepMode(*stepMode)
	fail("", err)

	cfg := core.DefaultConfig()
	cfg.Policy = pol
	cfg.MissPenalty = *penalty
	cfg.ICache.SizeBytes = *cacheSz
	cfg.MaxUnresolved = *depth
	cfg.FetchWidth = *width
	cfg.NextLinePrefetch = *prefetch
	cfg.StepMode = mode
	cfg.FlushInterval = *flushIv
	// An adaptive run takes the chooser flags' values, defaults included;
	// a static one carries only those given, which the spec then refuses.
	if pol == core.Adaptive || set["strategy"] {
		cfg.AdaptStrategy = *strategy
	}
	if pol == core.Adaptive || set["adapt-interval"] {
		cfg.AdaptInterval = *adaptIv
	}

	// The run is a sweep cell: its recipe is a JobSpec, validated and run
	// by the sweep's own code, which builds the chooser, the window store
	// and the auditor from it.
	spec := distsweep.JobSpec{
		Config:      distsweep.WireConfig{Config: cfg},
		Seed:        *seed,
		Insts:       *insts,
		AuditSample: *auditSample,
	}
	if *audit && spec.AuditSample == 0 {
		spec.AuditSample = 1
	}
	if *timelinePath != "" || *seriesPath != "" {
		spec.CaptureWindows = true
		spec.Config.SampleInterval = *interval
	}
	// The event recorder rides along only when asked for, so the default
	// run keeps the nil-probe fast path.
	var rec *obs.EventRecorder
	var extra obs.Probe
	if *eventsPath != "" || *timelinePath != "" {
		if *eventCap < 1 {
			fail("", fmt.Errorf("-event-cap %d: the event ring needs a capacity of at least 1", *eventCap))
		}
		rec = obs.NewEventRecorder(*eventCap)
		extra = rec
	}
	// A streaming audit violation surfaces as a panic carrying *AuditError;
	// turn it into a clean diagnostic instead of a stack trace.
	defer func() {
		r := recover()
		if ae, ok := r.(*obs.AuditError); ok {
			fail("", ae)
		} else if r != nil {
			panic(r)
		}
	}()

	var res core.Result
	var wins []obs.WindowRecord
	benchLabel := ""
	if *imagePath != "" || *tracePath != "" {
		if *imagePath == "" || *tracePath == "" {
			fail("", errors.New("-image and -trace must be given together"))
		}
		res, wins, err = runFromFiles(spec, *imagePath, *tracePath, extra)
		benchLabel = fmt.Sprintf("%s + %s", *imagePath, *tracePath)
	} else {
		prof, ok := synth.ProfileByName(*benchName)
		if !ok {
			fail("", fmt.Errorf("unknown benchmark %q (try -list)", *benchName))
		}
		spec.Profile = prof
		res, wins, err = runBench(spec, extra)
		benchLabel = fmt.Sprintf("%s (%s)", prof.Name, prof.Lang)
	}
	fail("", err)

	pf("benchmark    %s\n", benchLabel)
	pf("machine      %d-wide, depth %d, %dB I-cache, %d-cycle miss penalty, prefetch=%v\n",
		cfg.FetchWidth, cfg.MaxUnresolved, cfg.ICache.SizeBytes, cfg.MissPenalty, cfg.NextLinePrefetch)
	if pol == core.Adaptive {
		pf("policy       %s (strategy %s, window %d insts, %d switches)\n",
			pol, *strategy, *adaptIv, res.PolicySwitches)
	} else {
		pf("policy       %s\n", pol)
	}
	pf("instructions %d  cycles %d  IPC %.3f\n", res.Insts, res.Cycles, res.IPC())
	pf("total ISPI   %.4f\n", res.TotalISPI())
	for _, c := range metrics.Components() {
		pf("  %-14s %.4f\n", c, res.ISPI(c))
	}
	pf("right-path miss ratio  %.3f%% (%d misses / %d refs)\n",
		res.MissRatioPct(), res.RightPathMisses, res.RightPathAccesses)
	pf("wrong-path             %d insts fetched, %d misses\n",
		res.WrongPathInsts, res.WrongPathMisses)
	pf("memory traffic         %d lines (%d demand, %d wrong-path, %d prefetch)\n",
		res.Traffic.Total(), res.Traffic.DemandFills, res.Traffic.WrongPathFills, res.Traffic.PrefetchFills)
	pf("branch events          %d mispredicts, %d misfetches, %d BTB target mispredicts\n",
		res.Events.PHTMispredicts, res.Events.BTBMisfetches, res.Events.BTBMispredicts)

	switch {
	case spec.AuditSample > 1:
		pf("audit                  ok (sampled 1-in-%d windows; final identities verified exactly)\n", spec.AuditSample)
	case spec.AuditSample == 1:
		pf("audit                  ok (all accounting identities verified)\n")
	}

	fail("", writeArtifacts(rec, wins, *eventsPath, *timelinePath, *seriesPath))
}

// checkFlags rejects a command line that sets a flag the run never reads.
// set names the flags in effect: those flag.Visit reports, with the
// output paths present only when non-empty. -list reads only the profile
// flags; a trace-file replay reads neither -bench nor -seed.
func checkFlags(set map[string]bool) error {
	if set["list"] {
		var names []string
		for name, on := range set {
			if on && name != "list" && name != "cpuprofile" && name != "memprofile" {
				names = append(names, name)
			}
		}
		if len(names) > 0 {
			sort.Strings(names)
			return fmt.Errorf("-%s is not read with -list", names[0])
		}
	}
	replay := set["image"] || set["trace"]
	for _, f := range []struct {
		name, needs string
		read        bool
	}{
		{"interval", "with -series or -timeline", set["series"] || set["timeline"]},
		{"event-cap", "with -events or -timeline", set["events"] || set["timeline"]},
		{"bench", "without -image and -trace", !replay},
		{"seed", "without -image and -trace", !replay},
	} {
		if set[f.name] && !f.read {
			return fmt.Errorf("-%s is only read %s", f.name, f.needs)
		}
	}
	return nil
}

// fail, for a non-nil err, reports it and exits 1; what, when set, names
// the step that failed. An audit violation, streamed or found by the final
// check, reads as one.
func fail(what string, err error) {
	if err == nil {
		return
	}
	if errors.As(err, new(*obs.AuditError)) {
		what = "audit"
	}
	if what != "" {
		err = fmt.Errorf("%s: %w", what, err)
	}
	fmt.Fprintf(os.Stderr, "fetchsim: %v\n", err)
	os.Exit(1)
}

// pf is a checked Printf: a broken stdout is a hard error, not a silently
// truncated result block.
func pf(format string, args ...any) {
	_, err := fmt.Printf(format, args...)
	fail("writing output", err)
}

// writeArtifacts dumps the requested observability outputs.
func writeArtifacts(rec *obs.EventRecorder, wins []obs.WindowRecord,
	eventsPath, timelinePath, seriesPath string) error {
	writeTo := func(path string, fn func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			_ = f.Close() // the write error is the one worth reporting
			return err
		}
		return f.Close()
	}
	if rec != nil && rec.Dropped() > 0 {
		fmt.Fprintf(os.Stderr, "fetchsim: event ring overflowed: kept last %d of %d events (raise -event-cap)\n",
			rec.Cap(), rec.Total())
	}
	if eventsPath != "" {
		if err := writeTo(eventsPath, func(f *os.File) error { return rec.WriteJSONL(f) }); err != nil {
			return err
		}
		pf("events                 %s (%d events)\n", eventsPath, len(rec.Events()))
	}
	if timelinePath != "" {
		if err := writeTo(timelinePath, func(f *os.File) error {
			return obs.CombinedTrace{Events: rec.Events(), Counters: wins}.Write(f)
		}); err != nil {
			return err
		}
		pf("timeline               %s (%d counter windows; open in https://ui.perfetto.dev)\n",
			timelinePath, len(wins))
	}
	if seriesPath != "" {
		asJSON := len(seriesPath) > 5 && seriesPath[len(seriesPath)-5:] == ".json"
		if err := writeTo(seriesPath, func(f *os.File) error {
			if asJSON {
				return obs.WriteSeriesJSON(f, wins)
			}
			return obs.WriteSeriesCSV(f, wins)
		}); err != nil {
			return err
		}
		pf("series                 %s (%d samples)\n", seriesPath, len(wins))
	}
	return nil
}

// runBench runs spec over its profile's bench and the stream its seed and
// budget select: the stream a sweep cell of the same spec replays.
func runBench(spec distsweep.JobSpec, extra obs.Probe) (core.Result, []obs.WindowRecord, error) {
	if err := spec.Validate(); err != nil {
		return core.Result{}, nil, err
	}
	b, err := synth.Build(spec.Profile)
	if err != nil {
		return core.Result{}, nil, err
	}
	limit, _ := trace.BudgetLimit(spec.Insts) // Validate accepted the budget
	return experiments.RunSpec(spec, b.Image(), b.NewReader(spec.Seed, limit), nil, extra)
}

// runFromFiles replays a trace file against a serialized image. The spec
// has no profile, and Insts 0 replays the whole file.
func runFromFiles(spec distsweep.JobSpec, imagePath, tracePath string, extra obs.Probe) (core.Result, []obs.WindowRecord, error) {
	imgF, err := os.Open(imagePath)
	if err != nil {
		return core.Result{}, nil, err
	}
	defer func() { _ = imgF.Close() }() // read side; nothing to lose on close
	img, err := program.ReadImage(imgF)
	if err != nil {
		return core.Result{}, nil, err
	}
	trcF, err := os.Open(tracePath)
	if err != nil {
		return core.Result{}, nil, err
	}
	defer func() { _ = trcF.Close() }() // read side; nothing to lose on close
	rd, err := trace.OpenFile(trcF)
	if err != nil {
		return core.Result{}, nil, err
	}
	return experiments.RunSpec(spec, img, rd, nil, extra)
}
