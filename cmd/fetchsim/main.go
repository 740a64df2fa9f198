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
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"specfetch"
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

	// Host-side profiling of the simulator itself. Profiles are written when
	// the run completes; error paths exit without them, like `go test`.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fetchsim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fetchsim: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "fetchsim: cpuprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fetchsim: memprofile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC() // up-to-date live-object statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "fetchsim: memprofile: %v\n", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "fetchsim: memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	if *list {
		for _, p := range specfetch.Profiles() {
			pf("%-8s %-8s %s\n", p.Name, p.Lang, p.Description)
		}
		return
	}

	pol, err := specfetch.ParsePolicy(*policyStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fetchsim: %v\n", err)
		os.Exit(1)
	}
	mode, err := specfetch.ParseStepMode(*stepMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fetchsim: %v\n", err)
		os.Exit(1)
	}

	cfg := specfetch.DefaultConfig()
	cfg.Policy = pol
	cfg.MissPenalty = *penalty
	cfg.ICache.SizeBytes = *cacheSz
	cfg.MaxUnresolved = *depth
	cfg.FetchWidth = *width
	cfg.NextLinePrefetch = *prefetch
	cfg.StepMode = mode
	cfg.FlushInterval = *flushIv
	if pol == specfetch.Adaptive {
		ch, err := specfetch.NewChooser(*strategy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fetchsim: %v\n", err)
			os.Exit(1)
		}
		cfg.Chooser = ch
		cfg.AdaptStrategy = *strategy
		cfg.AdaptInterval = *adaptIv
	}

	// Observability: attach a recorder and/or window store only when asked
	// for, so the default run keeps the nil-probe fast path.
	var rec *specfetch.EventRecorder
	var win *specfetch.WindowSeries
	var probes []specfetch.Probe
	if *eventsPath != "" || *timelinePath != "" {
		rec = specfetch.NewEventRecorder(*eventCap)
		probes = append(probes, rec)
	}
	if *timelinePath != "" || *seriesPath != "" {
		win = specfetch.NewWindowSeries()
		probes = append(probes, win)
		cfg.SampleInterval = *interval
	}
	var aud *specfetch.AuditProbe
	if *audit || *auditSample > 0 {
		aud = specfetch.NewAuditProbe(specfetch.AuditOptions{
			Width:           cfg.FetchWidth,
			AllowBusOverlap: cfg.PipelinedMemory,
			SampleEvery:     *auditSample,
		})
		probes = append(probes, aud)
		// A streaming violation surfaces as a panic carrying *AuditError;
		// turn it into a clean diagnostic instead of a stack trace.
		defer func() {
			if r := recover(); r != nil {
				ae, ok := r.(*specfetch.AuditError)
				if !ok {
					panic(r)
				}
				fmt.Fprintf(os.Stderr, "fetchsim: audit: %v\n", ae)
				os.Exit(1)
			}
		}()
	}
	cfg.Probe = specfetch.MultiProbe(probes...)

	var res specfetch.Result
	benchLabel := ""
	if *imagePath != "" || *tracePath != "" {
		if *imagePath == "" || *tracePath == "" {
			fmt.Fprintln(os.Stderr, "fetchsim: -image and -trace must be given together")
			os.Exit(1)
		}
		res, err = runFromFiles(cfg, *imagePath, *tracePath, *insts)
		benchLabel = fmt.Sprintf("%s + %s", *imagePath, *tracePath)
	} else {
		prof, ok := specfetch.ProfileByName(*benchName)
		if !ok {
			fmt.Fprintf(os.Stderr, "fetchsim: unknown benchmark %q (try -list)\n", *benchName)
			os.Exit(1)
		}
		var bench *specfetch.Bench
		bench, err = specfetch.BuildBenchmark(prof)
		if err == nil {
			res, err = specfetch.RunBenchmark(bench, cfg, *insts, *seed)
		}
		benchLabel = fmt.Sprintf("%s (%s)", prof.Name, prof.Lang)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fetchsim: %v\n", err)
		os.Exit(1)
	}

	pf("benchmark    %s\n", benchLabel)
	pf("machine      %d-wide, depth %d, %dB I-cache, %d-cycle miss penalty, prefetch=%v\n",
		cfg.FetchWidth, cfg.MaxUnresolved, cfg.ICache.SizeBytes, cfg.MissPenalty, cfg.NextLinePrefetch)
	if pol == specfetch.Adaptive {
		pf("policy       %s (strategy %s, window %d insts, %d switches)\n",
			pol, *strategy, *adaptIv, res.PolicySwitches)
	} else {
		pf("policy       %s\n", pol)
	}
	pf("instructions %d  cycles %d  IPC %.3f\n", res.Insts, res.Cycles, res.IPC())
	pf("total ISPI   %.4f\n", res.TotalISPI())
	for _, c := range specfetch.Components() {
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

	if aud != nil {
		if err := aud.Verify(res.AuditFinal()); err != nil {
			fmt.Fprintf(os.Stderr, "fetchsim: audit: %v\n", err)
			os.Exit(1)
		}
		if *auditSample > 1 {
			pf("audit                  ok (sampled 1-in-%d windows; final identities verified exactly)\n", *auditSample)
		} else {
			pf("audit                  ok (all accounting identities verified)\n")
		}
	}

	if err := writeArtifacts(rec, win, *eventsPath, *timelinePath, *seriesPath); err != nil {
		fmt.Fprintf(os.Stderr, "fetchsim: %v\n", err)
		os.Exit(1)
	}
}

// pf is a checked Printf: a broken stdout is a hard error, not a silently
// truncated result block.
func pf(format string, args ...any) {
	if _, err := fmt.Printf(format, args...); err != nil {
		fmt.Fprintf(os.Stderr, "fetchsim: writing output: %v\n", err)
		os.Exit(1)
	}
}

// writeArtifacts dumps the requested observability outputs.
func writeArtifacts(rec *specfetch.EventRecorder, win *specfetch.WindowSeries,
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
			return specfetch.CombinedTrace{Events: rec.Events(), Counters: win.Records()}.Write(f)
		}); err != nil {
			return err
		}
		pf("timeline               %s (%d counter windows; open in https://ui.perfetto.dev)\n",
			timelinePath, win.Len())
	}
	if seriesPath != "" {
		asJSON := len(seriesPath) > 5 && seriesPath[len(seriesPath)-5:] == ".json"
		if err := writeTo(seriesPath, func(f *os.File) error {
			if asJSON {
				return specfetch.WriteSeriesJSON(f, win.Records())
			}
			return specfetch.WriteSeriesCSV(f, win.Records())
		}); err != nil {
			return err
		}
		pf("series                 %s (%d samples)\n", seriesPath, win.Len())
	}
	return nil
}

// runFromFiles replays a trace file against a serialized image.
func runFromFiles(cfg specfetch.Config, imagePath, tracePath string, insts int64) (specfetch.Result, error) {
	imgF, err := os.Open(imagePath)
	if err != nil {
		return specfetch.Result{}, err
	}
	defer func() { _ = imgF.Close() }() // read side; nothing to lose on close
	img, err := specfetch.ReadImage(imgF)
	if err != nil {
		return specfetch.Result{}, err
	}
	trcF, err := os.Open(tracePath)
	if err != nil {
		return specfetch.Result{}, err
	}
	defer func() { _ = trcF.Close() }() // read side; nothing to lose on close
	rd, err := specfetch.OpenTrace(trcF)
	if err != nil {
		return specfetch.Result{}, err
	}
	cfg.MaxInsts = insts
	return specfetch.Run(cfg, img, rd, specfetch.NewPredictor())
}
