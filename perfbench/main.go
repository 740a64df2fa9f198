// Command perfbench is specfetch's benchmark. It runs one named workload for
// a fixed host-time budget, checks every output the workload produces, and
// prints one JSON result line: the workload's end-to-end metrics in a plain
// run (--trace 0), or its per-layer metrics plus a Chrome trace in a traced
// run (--trace 1).
//
// Run it from the repository root through the launcher, which builds it:
//
//	python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0
//	python3 perfbench/run.py --workload interval-study --seed 1 --seconds 20 --trace 1
//
// README.md in this directory describes the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below are the
// benchmark's contract with BENCHMARK.json (a test keeps the two equal).
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics a plain run reports.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"sim_minst_per_s", "Minst/s"},
	{"alloc_mb", "MiB"},
	{"peak_rss_mb", "MiB"},
	{"model_err_pct", "pp"},
}

// perLayer are the metrics a traced run reports.
var perLayer = []metricSpec{
	{"synth.walk_ns_per_inst", "ns/inst"},
	{"synth.build_ms", "ms"},
	{"trace.replay_ns_per_inst", "ns/inst"},
	{"bpred.ns_per_branch", "ns/branch"},
	{"bpred.cond_branches", "count"},
	{"bpred.pht_mispredict_slots", "slots"},
	{"bpred.btb_misfetch_slots", "slots"},
	{"cache.ns_per_access", "ns/access"},
	{"cache.right_path_accesses", "count"},
	{"cache.right_path_misses", "count"},
	{"cache.wrong_path_misses", "count"},
	{"cache.bus_transfers", "count"},
	{"core.skipahead_ns_per_inst", "ns/inst"},
	{"core.skipahead_ns_per_cycle", "ns/cycle"},
	{"core.reference_ns_per_cycle", "ns/cycle"},
	{"core.cycles", "cycles"},
	{"core.wrong_path_insts", "count"},
	{"core.lost_slots.branch", "slots"},
	{"core.lost_slots.branch_full", "slots"},
	{"core.lost_slots.rt_icache", "slots"},
	{"core.lost_slots.wrong_icache", "slots"},
	{"core.lost_slots.bus", "slots"},
	{"core.lost_slots.force_resolve", "slots"},
	{"obs.windows_ns_per_inst", "ns/inst"},
	{"obs.window_records", "count"},
	{"obs.audit_ns_per_inst", "ns/inst"},
	{"adaptive.decide_ns_p50", "ns"},
	{"adaptive.decisions", "count"},
	{"adaptive.policy_switches", "count"},
	{"experiments.cell_ns_per_inst_p50", "ns/inst"},
	{"experiments.cell_ns_per_inst_p90", "ns/inst"},
	{"experiments.cells", "count"},
	{"experiments.pool_overhead_ms", "ms"},
	{"experiments.render_ms", "ms"},
	{"experiments.uncovered_cells", "count"},
	{"distsweep.encode_ms", "ms"},
	{"distsweep.decode_ms", "ms"},
	{"distsweep.wire_mb", "MiB"},
	{"distsweep.batch_ms_p50", "ms"},
	{"distsweep.batch_ms_p90", "ms"},
	{"distsweep.retries", "count"},
	{"distsweep.local_fallbacks", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.gc_cycles", "count"},
	{"trace_overhead_pct", "%"},
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
// Failed counts the attempted cells whose output failed a check, so
// fail_frac is Failed/Attempted.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult assembles a result from the checker's counts and the measured
// values, which must cover specs exactly.
func newResult(chk *checker, specs []metricSpec, values map[string]float64) (result, error) {
	r := result{
		Correct:   chk.failed == 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", s.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", s.name, v)
		}
		r.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if len(values) != len(specs) {
		return result{}, fmt.Errorf("measured %d metrics, the contract lists %d", len(values), len(specs))
	}
	return r, nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", defaultSeed, "workload seed; it drives the streams fleet-cells and reference-audit generate")
		seconds  = flag.Int("seconds", 10, "host seconds a plain run spends repeating the workload")
		traced   = flag.Int("trace", 0, "0 = plain run (end-to-end metrics), 1 = traced run (per-layer metrics and a Chrome trace)")
		traceOut = flag.String("trace-out", "", "Chrome trace file for --trace 1 (default .bench_build/perfbench-<workload>.trace.json)")
		writeDig = flag.String("write-digests", "", "run every workload once at the default seed, write its output digests to this file, and exit")
		insts    = flag.Int64("insts", 0, "override the workload's per-cell instruction budget (stored digests then do not apply); for sizing studies, not for gating")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of a plain run's passes to this file")
	)
	flag.Parse()

	if *writeDig != "" {
		if err := writeDigests(*writeDig, defaultSizes); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	stored, err := loadDigests(storedDigests)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	sz := defaultSizes
	if *insts > 0 {
		sz = sz.withInsts(w.name, *insts)
		stored = nil
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: GOMAXPROCS %d, %d CPUs\n", w.name, runtime.GOMAXPROCS(0), runtime.NumCPU())

	var res result
	if *traced == 1 {
		out := *traceOut
		if out == "" {
			out = ".bench_build/perfbench-" + w.name + ".trace.json"
		}
		res, err = runTraced(w, sz, *seed, out, stored)
	} else {
		var prof *os.File
		if *cpuProf != "" {
			if prof, err = os.Create(*cpuProf); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				os.Exit(1)
			}
		}
		res, err = runPlain(w, sz, *seed, time.Duration(*seconds)*time.Second, stored, prof)
		if prof != nil {
			if cerr := prof.Close(); err == nil {
				err = cerr
			}
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing the result: %v\n", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
