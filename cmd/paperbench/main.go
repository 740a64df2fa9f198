// Command paperbench regenerates every table and figure of the paper's
// evaluation section over the synthetic benchmark suite.
//
// Sweeps run as a work-list of independent simulation cells on a bounded
// worker pool (-workers, default GOMAXPROCS) with a deterministic reduction:
// the rendered tables and figures are byte-identical at every worker count.
// -remote-workers dispatches the same work-list across sweepworker daemon
// processes (see cmd/sweepworker) — still byte-identical, with automatic
// retry, eviction, and in-process fallback when workers fail.
// -audit-sample N attaches the runtime accounting auditor to every cell,
// checking one pipeline window in N.
//
// Long campaigns are observable: per-simulation progress goes to stderr
// (silence it with -quiet), -metrics-addr serves a Prometheus /metrics
// endpoint with campaign counters plus net/http/pprof under /debug/pprof/,
// and SIGINT reports how far the run got before exiting — tables already
// completed have been printed.
//
// Every run also traces host-side spans (one per simulation cell, plus one
// per bench for the work that is not a simulation: the Table 2/3 trace
// scans and the layout ablation's profiling walks) and prints a
// per-builder summary — cells, wall time, cells/sec — to stderr;
// -host-trace dumps the raw spans, with their per-span allocation counts,
// as a Chrome trace (workers x cells).
// Instrumentation never touches stdout: rendered sweep bytes are identical
// with it on or off. Host-side performance is measured by perfbench/.
//
// A flag that the selected run would never read (say -intervals-out
// without -oracle) is a usage error, not silently ignored.
//
// Usage:
//
//	paperbench -all [-insts N]
//	paperbench -table 5
//	paperbench -figure 3 -bench gcc,groff
//	paperbench -table 4 -csv
//	paperbench -all -metrics-addr :9090
//	paperbench -all -workers 8 -audit-sample 16
//	paperbench -all -remote-workers http://host1:8477,http://host2:8477
//	paperbench -oracle -interval 10000 -intervals-out intervals.jsonl
//	paperbench -adaptive -strategy phase:6 -interval 2500 -flush-interval 15000 -insts 20000000
//	paperbench -all -host-trace host.trace.json -cpuprofile cpu.pprof
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	runtimepprof "runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"

	"specfetch/internal/distsweep"
	"specfetch/internal/experiments"
	"specfetch/internal/hosttime"
	"specfetch/internal/obs"
	"specfetch/internal/sweeplog"
	"specfetch/internal/texttable"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate table N (2-7)")
		figure   = flag.Int("figure", 0, "regenerate figure N (1-4)")
		ablation = flag.String("ablation", "", ablationUsage())
		seeds    = flag.Int("sensitivity", 0, "run the seed-sensitivity analysis over N dynamic streams")
		sweep    = flag.Bool("sweep", false, "run the miss-latency sweep with crossover detection")
		modern   = flag.Bool("modern", false, "run the datacenter-footprint study (web/db/search)")
		oracle   = flag.Bool("oracle", false, "run the oracle-selector interval study (crossover table + per-window winner map)")
		adaptive = flag.Bool("adaptive", false, "run the adaptive meta-policy study: online chooser vs best static vs oracle selector (crossover table + winner map)")
		strategy = flag.String("strategy", "phase:6", "chooser strategy for -adaptive: phase:<period>|pinned:<policy>")
		flushIv  = flag.Int64("flush-interval", 0, "invalidate each cell's I-cache every N correct-path instructions in the -oracle and -adaptive studies, modeling periodic context switches (0 = never)")
		interval = flag.Int64("interval", 0, "window width in instructions for -oracle and -adaptive (0 = the default 10000)")
		intsOut  = flag.String("intervals-out", "", "with -oracle, write the per-policy window series as JSONL to this file (input for cmd/intervals)")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		insts    = flag.Int64("insts", 2_000_000, "instructions to simulate per benchmark")
		bench    = flag.String("bench", "", "comma-separated benchmark subset (default: all 13)")
		csv      = flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
		quiet    = flag.Bool("quiet", false, "suppress per-simulation progress and the host-side summary on stderr")
		metrics  = flag.String("metrics-addr", "", "serve Prometheus text metrics on this address at /metrics, with pprof under /debug/pprof/ (e.g. :9090)")
		workers  = flag.Int("workers", 0, "simulation cells to run concurrently (0 = GOMAXPROCS, 1 = serial); output is byte-identical at every setting")
		remoteWk = flag.String("remote-workers", "", "comma-separated sweepworker base URLs (e.g. http://host:8477,http://host:8478); serializable sweeps fan out across these processes, output stays byte-identical")
		auditSmp = flag.Int("audit-sample", 0, "attach the accounting auditor to every simulation, checking every Nth pipeline window (1 = every window)")
		stepMode = flag.String("stepmode", "", "engine core for every cell: skipahead (next-event) or reference (cycle-by-cycle); empty defers to SPECFETCH_STEPMODE, then skipahead. Output bytes are identical either way")
		hostTr   = flag.String("host-trace", "", "write host-side spans (workers x cells, plus remote fleet tracks with -remote-workers) as a Chrome trace JSON to this file")
		sweepLog = flag.String("sweep-log", "", "with -remote-workers, persist the structured sweep decision log (dispatch/retry/backoff/eviction/fallback JSONL) to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	set["oracle"], set["adaptive"], set["remote-workers"] = *oracle, *adaptive, *remoteWk != ""
	if err := checkFlags(set); err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}

	// Profiles and the sweep decision log must land even on the os.Exit
	// paths (errors, SIGINT, audit failures), so every exit funnels through
	// stopProfiles via exit().
	var profOnce sync.Once
	var cpuFile *os.File
	var sweepLogFile *os.File
	var sweepLogger *sweeplog.Logger
	stopProfiles := func() {
		profOnce.Do(func() {
			if err := sweepLogger.WriteErr(); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: sweep-log: %v\n", err)
			}
			if sweepLogFile != nil {
				if err := sweepLogFile.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "paperbench: sweep-log: %v\n", err)
				}
			}
			if cpuFile != nil {
				runtimepprof.StopCPUProfile()
				if err := cpuFile.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "paperbench: cpuprofile: %v\n", err)
				}
			}
			if *memProf != "" {
				f, err := os.Create(*memProf)
				if err != nil {
					fmt.Fprintf(os.Stderr, "paperbench: memprofile: %v\n", err)
					return
				}
				runtime.GC() // get up-to-date live-object statistics
				if err := runtimepprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "paperbench: memprofile: %v\n", err)
				}
				if err := f.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "paperbench: memprofile: %v\n", err)
				}
			}
		})
	}
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	// With -audit-sample, a streaming invariant violation inside any worker
	// surfaces as a panic carrying *obs.AuditError (re-thrown on this
	// goroutine by the pool); report it as a diagnosis, not a stack trace.
	defer func() {
		if r := recover(); r != nil {
			ae, ok := r.(*obs.AuditError)
			if !ok {
				panic(r)
			}
			fmt.Fprintf(os.Stderr, "paperbench: audit: %v\n", ae)
			exit(1)
		}
	}()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := runtimepprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		cpuFile = f
	}

	reg := obs.NewRegistry()
	spans := obs.NewSpanTracer()
	var stage atomic.Value
	stage.Store("startup")

	opt := experiments.Options{
		Insts: *insts, Metrics: reg, Spans: spans,
		Workers: *workers, AuditSample: *auditSmp,
	}
	if *stepMode != "" {
		mode, err := experiments.ParseStepMode(*stepMode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			exit(2)
		}
		opt.StepMode = mode
	}
	if *bench != "" {
		opt.Benchmarks = strings.Split(*bench, ",")
	}
	if !*quiet {
		opt.Progress = func(msg string) { fmt.Fprintf(os.Stderr, "paperbench: %s\n", msg) }
	}
	// The sweep decision log: -sweep-log persists it as JSONL; without the
	// flag it still feeds the in-memory flight recorder behind /sweepz.
	// Decisions go to the log and stderr only — never stdout, so rendered
	// sweep bytes stay invariant.
	var coord *distsweep.Coordinator
	if *remoteWk != "" {
		var logW io.Writer
		if *sweepLog != "" {
			f, err := os.Create(*sweepLog)
			if err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: sweep-log: %v\n", err)
				exit(1)
			}
			sweepLogFile, logW = f, f
		} else if !*quiet {
			logW = os.Stderr
		}
		sweepLogger = sweeplog.New(sweeplog.Options{W: logW})
		// One coordinator for the whole campaign, so retry/eviction state
		// spans builders: a worker evicted during table 2 stays evicted for
		// figure 4.
		coord = distsweep.New(distsweep.CoordinatorOptions{
			Workers: strings.Split(*remoteWk, ","), Metrics: reg, Spans: spans, Log: sweepLogger,
		})
		opt.Dispatch = coord
	}

	if !*all && *table == 0 && *figure == 0 && *ablation == "" && *seeds == 0 && !*sweep && !*modern && !*oracle && !*adaptive {
		flag.Usage()
		exit(2)
	}

	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: metrics server: %v\n", err)
			exit(1)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mux.Handle("/sweepz", coord.StatusHandler(sweepLogger))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				fmt.Fprintf(os.Stderr, "paperbench: metrics server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "paperbench: serving metrics on %s/metrics, pprof on %s/debug/pprof/\n", ln.Addr(), ln.Addr())
	}

	// SIGINT: completed tables are already on stdout; report how far the
	// campaign got and exit 130. A second SIGINT aborts immediately.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt)
	go func() {
		<-sigc
		go func() {
			<-sigc
			os.Exit(130)
		}()
		sims := reg.Counter("specfetch_simulations_total", "Completed simulation runs.").Value()
		si := reg.Counter("specfetch_simulated_insts_total", "Correct-path instructions simulated.").Value()
		fmt.Fprintf(os.Stderr,
			"\npaperbench: interrupted during %s: %d simulations done, %d instructions simulated; completed output above is valid\n",
			stage.Load(), sims, si)
		exit(130)
	}()

	run := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			exit(1)
		}
	}

	// collect runs one builder under a host-side span section, times it, and
	// counts the spans (cells) it produced, for the stderr summary only —
	// never stdout.
	type builderTime struct {
		name  string
		cells int
		wall  float64
	}
	var builders []builderTime
	collect := func(name string, build func() error) {
		stage.Store(name)
		spans.SetSection(name)
		lo := spans.Len()
		start := hosttime.Now()
		err := build()
		wall := hosttime.Since(start).Seconds()
		run(err)
		builders = append(builders, builderTime{name, spans.Len() - lo, wall})
	}

	newline := func() {
		_, err := fmt.Println()
		run(err)
	}
	emitTable := func(name string, fn func(experiments.Options) (*texttable.Table, error)) {
		var t *texttable.Table
		collect(name, func() (err error) {
			t, err = fn(opt)
			return err
		})
		if *csv {
			run(t.RenderCSV(os.Stdout))
		} else {
			run(t.Render(os.Stdout))
		}
		newline()
	}
	emitFigure := func(name string, fn func(experiments.Options) (*texttable.StackedBars, error)) {
		var f *texttable.StackedBars
		collect(name, func() (err error) {
			f, err = fn(opt)
			return err
		})
		run(f.Render(os.Stdout))
		newline()
	}

	tables := map[int]func(experiments.Options) (*texttable.Table, error){
		2: experiments.Table2, 3: experiments.Table3, 4: experiments.Table4,
		5: experiments.Table5, 6: experiments.Table6, 7: experiments.Table7,
	}
	figures := map[int]func(experiments.Options) (*texttable.StackedBars, error){
		1: experiments.Figure1, 2: experiments.Figure2,
		3: experiments.Figure3, 4: experiments.Figure4,
	}

	switch {
	case *adaptive:
		opt.FlushInterval = *flushIv
		var d *experiments.AdaptiveData
		collect("adaptive study", func() (err error) {
			d, err = experiments.AdaptiveStudyData(opt, *strategy, 0, *interval, nil)
			return err
		})
		tbl := d.CrossoverTable()
		if *csv {
			run(tbl.RenderCSV(os.Stdout))
		} else {
			run(tbl.Render(os.Stdout))
		}
		newline()
		_, err := fmt.Print(d.WinnerMap())
		run(err)
	case *oracle:
		opt.FlushInterval = *flushIv
		var d *experiments.OracleData
		collect("oracle selector", func() (err error) {
			d, err = experiments.OracleSelectorData(opt, *interval, nil)
			return err
		})
		tbl := d.CrossoverTable()
		if *csv {
			run(tbl.RenderCSV(os.Stdout))
		} else {
			run(tbl.Render(os.Stdout))
		}
		newline()
		_, err := fmt.Print(d.WinnerMap())
		run(err)
		if *intsOut != "" {
			f, err := os.Create(*intsOut)
			if err != nil {
				run(fmt.Errorf("intervals-out: %v", err))
			}
			if err := d.WriteJSONL(f); err != nil {
				run(fmt.Errorf("intervals-out: %v", err))
			}
			if err := f.Close(); err != nil {
				run(fmt.Errorf("intervals-out: %v", err))
			}
			fmt.Fprintf(os.Stderr, "paperbench: wrote interval JSONL to %s\n", *intsOut)
		}
	case *modern:
		emitTable("modern study", experiments.ModernStudy)
	case *sweep:
		emitTable("latency sweep", func(o experiments.Options) (*texttable.Table, error) {
			return experiments.LatencySweep(o, nil)
		})
	case *seeds > 0:
		emitTable(fmt.Sprintf("seed sensitivity (%d seeds)", *seeds),
			func(o experiments.Options) (*texttable.Table, error) {
				return experiments.SeedSensitivity(o, *seeds)
			})
	case *all:
		for n := 2; n <= 7; n++ {
			emitTable(fmt.Sprintf("table %d", n), tables[n])
		}
		for n := 1; n <= 4; n++ {
			emitFigure(fmt.Sprintf("figure %d", n), figures[n])
		}
	case *ablation != "":
		fn, ok := experiments.Ablations()[*ablation]
		if !ok {
			run(fmt.Errorf("no ablation %q", *ablation))
		}
		emitTable("ablation "+*ablation, fn)
	case *table != 0:
		fn, ok := tables[*table]
		if !ok {
			run(fmt.Errorf("no table %d (paper has tables 2-7)", *table))
		}
		emitTable(fmt.Sprintf("table %d", *table), fn)
	case *figure != 0:
		fn, ok := figures[*figure]
		if !ok {
			run(fmt.Errorf("no figure %d (paper has figures 1-4)", *figure))
		}
		emitFigure(fmt.Sprintf("figure %d", *figure), fn)
	}

	if !*quiet {
		fmt.Fprintf(os.Stderr, "paperbench: host-side summary (%s, GOMAXPROCS %d, workers %d):\n",
			runtime.Version(), runtime.GOMAXPROCS(0), *workers)
		for _, b := range builders {
			var rate float64
			if b.wall > 0 {
				rate = float64(b.cells) / b.wall
			}
			fmt.Fprintf(os.Stderr, "paperbench:   %-24s %4d cells in %8.3fs (%7.1f cells/sec)\n",
				b.name, b.cells, b.wall, rate)
		}
	}
	if *hostTr != "" {
		f, err := os.Create(*hostTr)
		if err != nil {
			run(fmt.Errorf("host-trace: %v", err))
		}
		if err := obs.WriteCombinedTrace(f, nil, spans.Spans(), coord.FleetSpans()...); err != nil {
			run(fmt.Errorf("host-trace: %v", err))
		}
		if err := f.Close(); err != nil {
			run(fmt.Errorf("host-trace: %v", err))
		}
		fmt.Fprintf(os.Stderr, "paperbench: wrote host trace to %s\n", *hostTr)
	}
	stopProfiles()
}

// ablationUsage is the -ablation help, naming every ablation there is.
func ablationUsage() string {
	return "run an ablation: " + strings.Join(experiments.AblationNames(), "|")
}

// checkFlags rejects a command line that sets a flag the selected run
// never reads. set names the flags in effect: those flag.Visit reports,
// with -oracle, -adaptive and -remote-workers present only when on.
// -adaptive runs ahead of -oracle, as main's dispatch orders them.
func checkFlags(set map[string]bool) error {
	adaptive := set["adaptive"]
	oracle := set["oracle"] && !adaptive
	for _, f := range []struct {
		name, needs string
		read        bool
	}{
		{"strategy", "-adaptive", adaptive},
		{"flush-interval", "-oracle or -adaptive", oracle || adaptive},
		{"interval", "-oracle or -adaptive", oracle || adaptive},
		{"intervals-out", "-oracle", oracle},
		{"sweep-log", "-remote-workers", set["remote-workers"]},
	} {
		if set[f.name] && !f.read {
			return fmt.Errorf("-%s is only read with %s", f.name, f.needs)
		}
	}
	return nil
}
