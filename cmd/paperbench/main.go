// Command paperbench regenerates every table and figure of the paper's
// evaluation section over the synthetic benchmark suite. Each run renders
// one selection: -all (the paper's tables and figures), -table, -figure,
// -ablation, -sweep or -modern pick artifacts from the experiments
// catalogue; -sensitivity, -oracle and -adaptive run the studies that take
// parameters. -csv prints any table or figure as CSV.
//
// Sweeps run as a work-list of independent simulation cells on a bounded
// worker pool (-workers, default GOMAXPROCS) with a deterministic reduction:
// the rendered tables and figures are byte-identical at every worker count.
// -remote-workers dispatches the same work-list across sweepworker daemon
// processes (see cmd/sweepworker) — still byte-identical, with automatic
// retry, eviction, and in-process fallback when workers fail; the stderr
// summary then adds one fleet line (remote and local batches, retries,
// evictions).
// -audit-sample N attaches the runtime accounting auditor to every cell,
// checking one pipeline window in N.
//
// Every cell runs the skip-ahead engine core. The cycle-by-cycle reference
// stepper renders the same bytes for every artifact; the experiments tests
// check that, and fetchsim -stepmode reference runs one cell on it.
//
// Long campaigns are observable: per-simulation progress goes to stderr
// (silence it with -quiet), -metrics-addr serves a Prometheus /metrics
// endpoint with campaign counters plus net/http/pprof under /debug/pprof/,
// and SIGINT reports how far the run got before exiting — tables already
// completed have been printed.
//
// Every run also traces host-side spans (one per simulation cell, plus one
// per bench for the work that is not a simulation: the Table 2 trace scan
// and the layout ablation's profiling walks) and prints a
// per-builder summary — cells, wall time, cells/sec — to stderr;
// -host-trace dumps the raw spans, with their per-span allocation counts,
// as a Chrome trace (workers x cells).
// Instrumentation never touches stdout: rendered sweep bytes are identical
// with it on or off. Host-side performance is measured by perfbench/.
//
// A flag that the selected run would never read (say -intervals-out
// without -oracle), or a second run selector, is a usage error, not
// silently ignored.
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
		csv      = flag.Bool("csv", false, "emit tables and figures as CSV instead of aligned text")
		quiet    = flag.Bool("quiet", false, "suppress per-simulation progress and the host-side summary on stderr")
		metrics  = flag.String("metrics-addr", "", "serve Prometheus text metrics on this address at /metrics, with pprof under /debug/pprof/ (e.g. :9090)")
		workers  = flag.Int("workers", 0, "simulation cells to run concurrently (0 = GOMAXPROCS, 1 = serial); output is byte-identical at every setting")
		remoteWk = flag.String("remote-workers", "", "comma-separated sweepworker base URLs (e.g. http://host:8477,http://host:8478); serializable sweeps fan out across these processes, output stays byte-identical")
		auditSmp = flag.Int("audit-sample", 0, "attach the accounting auditor to every simulation, checking every Nth pipeline window (1 = every window)")
		hostTr   = flag.String("host-trace", "", "write host-side spans (workers x cells, plus remote fleet tracks with -remote-workers) as a Chrome trace JSON to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	set["all"], set["table"], set["figure"], set["ablation"], set["sensitivity"] =
		*all, *table != 0, *figure != 0, *ablation != "", *seeds != 0
	set["sweep"], set["modern"], set["oracle"], set["adaptive"] = *sweep, *modern, *oracle, *adaptive
	sel, err := checkFlags(set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}
	if sel == "" {
		flag.Usage()
		os.Exit(2)
	}

	// Profiles must land even on the os.Exit paths (errors, SIGINT, audit
	// failures), so every exit funnels through stopProfiles via exit().
	var profOnce sync.Once
	var cpuFile *os.File
	stopProfiles := func() {
		profOnce.Do(func() {
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
	if *bench != "" {
		opt.Benchmarks = strings.Split(*bench, ",")
	}
	if !*quiet {
		opt.Progress = func(msg string) { fmt.Fprintf(os.Stderr, "paperbench: %s\n", msg) }
	}
	// One coordinator for the whole campaign, so retry/eviction state spans
	// builders: a worker evicted during table 2 stays evicted for figure 4.
	var coord *distsweep.Coordinator
	if *remoteWk != "" {
		coord = distsweep.New(distsweep.CoordinatorOptions{
			Workers: strings.Split(*remoteWk, ","), Metrics: reg, Spans: spans,
		})
		opt.Dispatch = coord
	}

	if *metrics != "" {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: metrics server: %v\n", err)
			exit(1)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
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

	// emit renders one table or figure to stdout, as CSV under -csv.
	emit := func(r experiments.Renderer) {
		if *csv {
			run(r.RenderCSV(os.Stdout))
		} else {
			run(r.Render(os.Stdout))
		}
		_, err := fmt.Println()
		run(err)
	}

	var arts []experiments.Artifact
	switch sel {
	case "adaptive":
		opt.FlushInterval = *flushIv
		var d *experiments.AdaptiveData
		collect("adaptive study", func() (err error) {
			d, err = experiments.AdaptiveStudyData(opt, *strategy, 0, *interval, nil)
			return err
		})
		emit(d.CrossoverTable())
		_, err := fmt.Print(d.WinnerMap())
		run(err)
	case "oracle":
		opt.FlushInterval = *flushIv
		var d *experiments.OracleData
		collect("oracle selector", func() (err error) {
			d, err = experiments.OracleSelectorData(opt, *interval, nil)
			return err
		})
		emit(d.CrossoverTable())
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
	case "sensitivity":
		arts = []experiments.Artifact{{
			Name: fmt.Sprintf("seed sensitivity (%d seeds)", *seeds),
			Build: func(o experiments.Options) (experiments.Renderer, error) {
				return experiments.SeedSensitivity(o, *seeds)
			},
		}}
	default:
		name := map[string]string{
			"table": fmt.Sprintf("table %d", *table), "figure": fmt.Sprintf("figure %d", *figure),
			"ablation": "ablation " + *ablation, "sweep": "latency sweep", "modern": "modern study",
		}[sel]
		for _, a := range experiments.Catalogue() {
			if a.Name == name || (sel == "all" && a.Paper) {
				arts = append(arts, a)
			}
		}
		if len(arts) == 0 {
			run(fmt.Errorf("no %s (see -help)", name))
		}
	}
	for _, a := range arts {
		var r experiments.Renderer
		collect(a.Name, func() (err error) {
			r, err = a.Build(opt)
			return err
		})
		emit(r)
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
		if coord != nil {
			s := coord.Status()
			network := reg.Counter("specfetch_dispatch_retry_network_total",
				"Failed remote batch attempts, by cause (network).").Value()
			fmt.Fprintf(os.Stderr, "paperbench: fleet: %d remote batches, %d local batches, %d retries (%d network), %d evictions\n",
				s.RemoteBatches, s.LocalBatches, s.Retries, network, s.Evictions)
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
	var names []string
	for _, a := range experiments.Catalogue() {
		if name, ok := strings.CutPrefix(a.Name, "ablation "); ok {
			names = append(names, name)
		}
	}
	return "run an ablation: " + strings.Join(names, "|")
}

// checkFlags returns the one run selector set names, or "" for none, and
// rejects a command line that sets a second selector or a flag the
// selected run never reads. set names the flags in effect: those
// flag.Visit reports, with each selector present only when it selects.
func checkFlags(set map[string]bool) (string, error) {
	sel := ""
	for _, s := range []string{"all", "table", "figure", "ablation", "sensitivity", "sweep", "modern", "oracle", "adaptive"} {
		if !set[s] {
			continue
		}
		if sel != "" {
			return "", fmt.Errorf("-%s selects a second run beside -%s; give one", s, sel)
		}
		sel = s
	}
	for _, f := range []struct {
		name, needs string
		read        bool
	}{
		{"strategy", "-adaptive", sel == "adaptive"},
		{"flush-interval", "-oracle or -adaptive", sel == "oracle" || sel == "adaptive"},
		{"interval", "-oracle or -adaptive", sel == "oracle" || sel == "adaptive"},
		{"intervals-out", "-oracle", sel == "oracle"},
	} {
		if set[f.name] && !f.read {
			return "", fmt.Errorf("-%s is only read with %s", f.name, f.needs)
		}
	}
	return sel, nil
}
