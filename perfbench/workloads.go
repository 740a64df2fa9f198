package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"specfetch/internal/bpred"
	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/experiments"
	"specfetch/internal/hosttime"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/texttable"
	"specfetch/internal/xrand"
)

// The four workloads. Each stresses a different part of the program (see
// README.md); all run serially, one cell at a time, because concurrent cells
// on a small host contend for memory bandwidth and made earlier measurements
// too noisy to gate on.

// sizes fixes how much work one pass of each workload does. The stored
// digests hold for defaultSizes only; the tests use smaller sizes.
type sizes struct {
	// paperInsts is the per-cell budget of paper-sweep and of the Table 3
	// run behind model_err_pct.
	paperInsts int64
	// intervalInsts is the per-cell budget of interval-study.
	intervalInsts int64
	// fleetInsts and fleetStreams size fleet-cells: every profile runs
	// fleetStreams seed-derived streams under 5 policies x 2 penalties.
	fleetInsts   int64
	fleetStreams int
	// refInsts and refStreams size reference-audit: refStreams streams under
	// 5 policies.
	refInsts   int64
	refStreams int
}

// defaultSizes are large enough that each layer's share of a pass is close
// to its share at the budgets the program is really run at (1M to 20M
// instructions per cell); STEADINESS.md compares the two.
var defaultSizes = sizes{
	paperInsts:    400_000,
	intervalInsts: 2_000_000,
	fleetInsts:    250_000,
	fleetStreams:  2,
	refInsts:      1_000_000,
	refStreams:    6,
}

// workload is one named benchmark input.
type workload struct {
	name string
	// seeded reports whether the workload's inputs derive from the seed.
	seeded bool
	setup  func(sz sizes, seed uint64) (*instance, error)
}

var workloads = []workload{
	{name: "paper-sweep", setup: setupPaperSweep},
	{name: "interval-study", setup: setupIntervalStudy},
	{name: "fleet-cells", seeded: true, setup: setupFleetCells},
	{name: "reference-audit", seeded: true, setup: setupReferenceAudit},
}

// withInsts returns sz with the named workload's per-cell budget set to n.
func (sz sizes) withInsts(workload string, n int64) sizes {
	switch workload {
	case "paper-sweep":
		sz.paperInsts = n
	case "interval-study":
		sz.intervalInsts = n
	case "fleet-cells":
		sz.fleetInsts = n
	case "reference-audit":
		sz.refInsts = n
	}
	return sz
}

// instance is a set-up workload.
type instance struct {
	// build is the share of set-up spent in synth.Build.
	build time.Duration
	// pass runs the workload's work once.
	pass func(env passEnv) (passResult, error)
	// native reports that pass returns every cell as a JobSpec with its
	// result, so the traced run needs no capture pass.
	native bool
	close  func()
}

// passEnv is what a pass attaches to the program: host spans and metrics in
// a traced pass, a dispatching coordinator in a capture pass. The zero value
// is a plain pass.
type passEnv struct {
	spans    *obs.SpanTracer
	metrics  *obs.Registry
	dispatch *distsweep.Coordinator
}

// passResult is what one pass produced.
type passResult struct {
	outputs []output
	// insts sums Result.Insts over the pass's cells; sims counts the cells.
	insts int64
	sims  int
	// budget is the per-cell instruction budget.
	budget int64
	// render is the time spent rendering and re-reading artifacts after the
	// builders returned.
	render time.Duration
	// cells holds every cell's spec and result when the instance is native.
	cells []cellRecord
	// retries and localFallbacks are the fleet's dispatch faults.
	retries, localFallbacks int64
	// fleet holds the worker-side cell spans of a traced fleet pass.
	fleet []obs.ProcessSpans
}

// cellRecord is one cell as the wire carries it, with its result.
type cellRecord struct {
	spec distsweep.JobSpec
	res  distsweep.JobResult
}

// registry returns the pass's metrics registry, creating a private one for
// plain passes: the executor's simulation counters are how a pass learns how
// many cells and instructions it ran.
func (e passEnv) registry() *obs.Registry {
	if e.metrics != nil {
		return e.metrics
	}
	return obs.NewRegistry()
}

// simCounts reads the executor's campaign counters.
func simCounts(reg *obs.Registry) (sims, insts int64) {
	return reg.Counter("specfetch_simulations_total", "Completed simulation runs.").Value(),
		reg.Counter("specfetch_simulated_insts_total", "Correct-path instructions simulated.").Value()
}

// buildProfiles runs synth.Build over the named profiles.
func buildProfiles(names []string) (map[string]*synth.Bench, time.Duration, error) {
	start := hosttime.Now()
	out := make(map[string]*synth.Bench, len(names))
	for _, n := range names {
		p, ok := synth.ProfileByName(n)
		if !ok {
			return nil, 0, fmt.Errorf("no profile %q", n)
		}
		b, err := synth.Build(p)
		if err != nil {
			return nil, 0, err
		}
		out[n] = b
	}
	return out, hosttime.Since(start), nil
}

// traceLimit is the stream length the experiments executor feeds a cell with
// budget insts: the budget plus a quarter of headroom for wrong-path reads.
func traceLimit(insts int64) int64 { return insts + insts/4 }

func newPredictor(spec distsweep.JobSpec) (bpred.Predictor, error) {
	mk, err := bpred.ByName(spec.Pred)
	if err != nil {
		return nil, err
	}
	return mk(), nil
}

func cellName(spec distsweep.JobSpec) string {
	return spec.Profile.Name + "/" + spec.Config.Policy.String()
}

// ---- paper-sweep ----------------------------------------------------------

type renderer interface{ Render(io.Writer) error }

// paperBuilder is one table or figure builder paperbench -all runs.
type paperBuilder struct {
	name string
	run  func(experiments.Options) (renderer, error)
}

func table(name string, fn func(experiments.Options) (*texttable.Table, error)) paperBuilder {
	return paperBuilder{name, func(o experiments.Options) (renderer, error) { return fn(o) }}
}

func figure(name string, fn func(experiments.Options) (*texttable.StackedBars, error)) paperBuilder {
	return paperBuilder{name, func(o experiments.Options) (renderer, error) { return fn(o) }}
}

// paperBuilders lists paperbench -all's builders in its order.
var paperBuilders = []paperBuilder{
	table("table 2", experiments.Table2),
	table("table 3", experiments.Table3),
	table("table 4", experiments.Table4),
	table("table 5", experiments.Table5),
	table("table 6", experiments.Table6),
	table("table 7", experiments.Table7),
	figure("figure 1", experiments.Figure1),
	figure("figure 2", experiments.Figure2),
	figure("figure 3", experiments.Figure3),
	figure("figure 4", experiments.Figure4),
}

// paperProfiles are the profiles paper-sweep runs every builder over: three
// of the five the paper's figures plot, a Fortran, a C and a C++ program.
var paperProfiles = []string{"doduc", "gcc", "groff"}

// setupPaperSweep builds the sweep's profiles. The builders build their own
// benches, as paperbench does, so set-up only measures synth.Build.
func setupPaperSweep(sz sizes, _ uint64) (*instance, error) {
	_, build, err := buildProfiles(paperProfiles)
	if err != nil {
		return nil, err
	}
	return &instance{
		build: build,
		pass:  func(env passEnv) (passResult, error) { return paperSweepPass(sz.paperInsts, env) },
		close: func() {},
	}, nil
}

func paperSweepPass(insts int64, env passEnv) (passResult, error) {
	reg := env.registry()
	opt := experiments.Options{
		Insts: insts, Benchmarks: paperProfiles, Workers: 1,
		Metrics: reg, Spans: env.spans, Dispatch: env.dispatch,
	}
	out := passResult{budget: insts}
	sims0, insts0 := simCounts(reg)
	var buf bytes.Buffer
	for _, b := range paperBuilders {
		env.spans.SetSection(b.name)
		before, _ := simCounts(reg)
		r, err := b.run(opt)
		if err != nil {
			return out, fmt.Errorf("%s: %w", b.name, err)
		}
		start := hosttime.Now()
		buf.Reset()
		if err := r.Render(&buf); err != nil {
			return out, fmt.Errorf("rendering %s: %w", b.name, err)
		}
		out.render += hosttime.Since(start)
		after, _ := simCounts(reg)
		out.outputs = append(out.outputs, output{name: b.name, cells: int(after - before), digest: digest(buf.Bytes())})
	}
	sims1, insts1 := simCounts(reg)
	out.sims, out.insts = int(sims1-sims0), insts1-insts0
	return out, nil
}

// ---- interval-study -------------------------------------------------------

// The adaptive study at the settings DESIGN.md pins it at (phase:6, 2500-
// instruction windows, 15000-instruction flushes, 5c and 20c), over porky,
// the study's acceptance profile, whose oracle winner map switches policies.
var (
	intervalProfiles  = []string{"porky"}
	intervalPenalties = []int{5, 20}
)

const (
	intervalStrategy = "phase:6"
	intervalWindow   = 2500
	intervalFlush    = 15_000
)

func setupIntervalStudy(sz sizes, _ uint64) (*instance, error) {
	_, build, err := buildProfiles(intervalProfiles)
	if err != nil {
		return nil, err
	}
	return &instance{
		build: build,
		pass:  func(env passEnv) (passResult, error) { return intervalStudyPass(sz.intervalInsts, env) },
		close: func() {},
	}, nil
}

func intervalStudyPass(insts int64, env passEnv) (passResult, error) {
	reg := env.registry()
	out := passResult{budget: insts}
	sims0, insts0 := simCounts(reg)
	for _, bench := range intervalProfiles {
		before, _ := simCounts(reg)
		o, render, err := intervalStudy(bench, insts, reg, env)
		if err != nil {
			return out, fmt.Errorf("%s: %w", bench, err)
		}
		after, _ := simCounts(reg)
		o.cells = int(after - before)
		out.outputs = append(out.outputs, o)
		out.render += render
	}
	sims1, insts1 := simCounts(reg)
	out.sims, out.insts = int(sims1-sims0), insts1-insts0
	return out, nil
}

// intervalStudy runs the study over one profile, renders it, and checks
// that the oracle JSONL round trip re-renders the same bytes. It returns the
// time spent rendering and re-reading.
func intervalStudy(bench string, insts int64, reg *obs.Registry, env passEnv) (output, time.Duration, error) {
	opt := experiments.Options{
		Insts: insts, Benchmarks: []string{bench}, Workers: 1,
		FlushInterval: intervalFlush,
		Metrics:       reg, Spans: env.spans, Dispatch: env.dispatch,
	}
	d, err := experiments.AdaptiveStudyData(opt, intervalStrategy, 0, intervalWindow, intervalPenalties)
	if err != nil {
		return output{}, 0, err
	}
	start := hosttime.Now()
	var report, oracle, again, jsonl bytes.Buffer
	if err := renderStudy(&report, d.CrossoverTable(), d.WinnerMap()); err != nil {
		return output{}, 0, err
	}
	if err := renderStudy(&oracle, d.Oracle.CrossoverTable(), d.Oracle.WinnerMap()); err != nil {
		return output{}, 0, err
	}
	if err := d.Oracle.WriteJSONL(&jsonl); err != nil {
		return output{}, 0, fmt.Errorf("writing the oracle JSONL: %w", err)
	}
	back, err := experiments.ReadOracleJSONL(&jsonl)
	if err != nil {
		return output{}, 0, fmt.Errorf("reading the oracle JSONL back: %w", err)
	}
	if err := renderStudy(&again, back.CrossoverTable(), back.WinnerMap()); err != nil {
		return output{}, 0, err
	}
	o := output{name: "adaptive study " + bench, digest: digest(report.Bytes(), oracle.Bytes())}
	if !bytes.Equal(oracle.Bytes(), again.Bytes()) {
		o.err = errors.New("the oracle JSONL round trip re-rendered different bytes")
	}
	return o, hosttime.Since(start), nil
}

func renderStudy(w *bytes.Buffer, t *texttable.Table, winners string) error {
	if err := t.Render(w); err != nil {
		return err
	}
	w.WriteString("\n")
	w.WriteString(winners)
	return nil
}

// ---- fleet-cells ----------------------------------------------------------

// The oracle study's cell shape over three C/C++ profiles, on streams the
// seed derives, sent as one work-list to one loopback worker.
var (
	fleetProfiles  = []string{"gcc", "groff", "porky"}
	fleetPenalties = []int{5, 20}
)

const fleetWindow = 2500

// fleetSpecs generates the fleet-cells work-list for a seed.
func fleetSpecs(sz sizes, seed uint64) ([]distsweep.JobSpec, error) {
	rng := xrand.New(seed ^ 0xf1ee7)
	var specs []distsweep.JobSpec
	for _, name := range fleetProfiles {
		p, ok := synth.ProfileByName(name)
		if !ok {
			return nil, fmt.Errorf("no profile %q", name)
		}
		for s := 0; s < sz.fleetStreams; s++ {
			stream := rng.Uint64()
			for _, pen := range fleetPenalties {
				for _, pol := range core.Policies() {
					cfg := core.DefaultConfig()
					cfg.Policy = pol
					cfg.MissPenalty = pen
					cfg.SampleInterval = fleetWindow
					wc, err := distsweep.FromConfig(cfg)
					if err != nil {
						return nil, err
					}
					specs = append(specs, distsweep.JobSpec{
						Profile: p, Config: wc, Seed: stream,
						Insts: sz.fleetInsts, CaptureWindows: true,
					})
				}
			}
		}
	}
	return specs, nil
}

// loopback is a distsweep worker served on 127.0.0.1 until closed.
type loopback struct {
	url    string
	srv    *http.Server
	done   chan error
	client *http.Client
}

func startLoopback(run distsweep.Runner) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: distsweep.NewServer(distsweep.ServerOptions{Runner: run}).Handler()},
		done: make(chan error, 1),
		// One connection: the coordinator has one worker slot and the worker
		// runs batches serially.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
	}
	go func() { l.done <- l.srv.Serve(ln) }()
	return l, nil
}

// coordinator returns a coordinator over this worker alone.
func (l *loopback) coordinator(spans *obs.SpanTracer, reg *obs.Registry) *distsweep.Coordinator {
	return distsweep.New(distsweep.CoordinatorOptions{
		Workers: []string{l.url}, Spans: spans, Metrics: reg, Client: l.client,
	})
}

// close stops the server and waits for it to exit.
func (l *loopback) close() {
	l.client.CloseIdleConnections()
	// Close's error only reports the listener failing to close; Serve's
	// return below is what says the server is gone.
	_ = l.srv.Close()
	<-l.done
}

func setupFleetCells(sz sizes, seed uint64) (*instance, error) {
	specs, err := fleetSpecs(sz, seed)
	if err != nil {
		return nil, err
	}
	runner := experiments.NewJobRunner(nil)
	// Warm the worker's bench memo with one short job per profile, so every
	// pass meets a worker that has built its benches, as a long-lived
	// sweepworker would have.
	start := hosttime.Now()
	warmed := map[string]bool{}
	for _, s := range specs {
		if warmed[s.Profile.Name] {
			continue
		}
		warmed[s.Profile.Name] = true
		s.Insts, s.CaptureWindows = 1_000, false
		if _, err := runner.Run(s); err != nil {
			return nil, fmt.Errorf("warming the worker: %w", err)
		}
	}
	build := hosttime.Since(start)
	lb, err := startLoopback(runner.Run)
	if err != nil {
		return nil, err
	}
	plain := lb.coordinator(nil, nil)
	return &instance{
		build:  build,
		native: true,
		pass: func(env passEnv) (passResult, error) {
			coord := plain
			if env.spans != nil || env.metrics != nil {
				coord = lb.coordinator(env.spans, env.metrics)
			}
			return fleetPass(coord, runner, specs, sz.fleetInsts, env.spans != nil)
		},
		close: lb.close,
	}, nil
}

func fleetPass(coord *distsweep.Coordinator, runner *experiments.JobRunner, specs []distsweep.JobSpec, insts int64, traced bool) (passResult, error) {
	out := passResult{budget: insts}
	before := coord.Status()
	// The fallback path a coordinator takes when the worker cannot finish a
	// batch; it runs the same runner in this process and must stay unused.
	local := func(_ int, jobs []distsweep.JobSpec) ([]distsweep.JobResult, error) {
		res := make([]distsweep.JobResult, len(jobs))
		for i, j := range jobs {
			r, err := runner.Run(j)
			if err != nil {
				return nil, err
			}
			res[i] = r
		}
		return res, nil
	}
	// One work-list per stream: its cells under every policy and penalty.
	chunk := len(fleetPenalties) * len(core.Policies())
	for lo := 0; lo < len(specs); lo += chunk {
		res, err := coord.Run(specs[lo:min(lo+chunk, len(specs))], local, nil)
		if err != nil {
			return out, err
		}
		for i, r := range res {
			d, err := digestJSON(struct {
				Result  core.Result
				Windows []obs.WindowRecord
			}{r.Result, r.WindowSeries})
			if err != nil {
				return out, err
			}
			out.outputs = append(out.outputs, output{name: fmt.Sprintf("cell %d", lo+i), cells: 1, digest: d})
			out.cells = append(out.cells, cellRecord{spec: specs[lo+i], res: r})
			out.insts += r.Result.Insts
		}
	}
	after := coord.Status()
	out.retries = after.Retries - before.Retries
	out.localFallbacks = after.LocalBatches - before.LocalBatches
	if out.retries != 0 || out.localFallbacks != 0 {
		fault := fmt.Errorf("the fleet needed %d retries and %d local fallback batches, want none",
			out.retries, out.localFallbacks)
		for i := range out.outputs {
			out.outputs[i].err = fault
		}
	}
	out.sims = len(out.cells)
	if traced {
		out.fleet = coord.FleetSpans()
	}
	return out, nil
}

// ---- reference-audit ------------------------------------------------------

// The cells where the two engine cores differ most: a low-miss Fortran
// profile on the baseline 8K cache at the 20-cycle penalty, where skip-ahead
// jumps the longest stretches the reference stepper walks cycle by cycle.
const refProfile = "su2cor"

// refSpecs generates the reference-audit work-list for a seed.
func refSpecs(sz sizes, seed uint64) ([]distsweep.JobSpec, error) {
	p, ok := synth.ProfileByName(refProfile)
	if !ok {
		return nil, fmt.Errorf("no profile %q", refProfile)
	}
	rng := xrand.New(seed ^ 0x4ef)
	var specs []distsweep.JobSpec
	for s := 0; s < sz.refStreams; s++ {
		stream := rng.Uint64()
		for _, pol := range core.Policies() {
			cfg := core.DefaultConfig()
			cfg.Policy = pol
			cfg.MissPenalty = 20
			cfg.StepMode = core.StepReference
			wc, err := distsweep.FromConfig(cfg)
			if err != nil {
				return nil, err
			}
			specs = append(specs, distsweep.JobSpec{
				Profile: p, Config: wc, Seed: stream, Insts: sz.refInsts, AuditSample: 1,
			})
		}
	}
	return specs, nil
}

func setupReferenceAudit(sz sizes, seed uint64) (*instance, error) {
	specs, err := refSpecs(sz, seed)
	if err != nil {
		return nil, err
	}
	benches, build, err := buildProfiles([]string{refProfile})
	if err != nil {
		return nil, err
	}
	b := benches[refProfile]
	return &instance{
		build:  build,
		native: true,
		pass:   func(env passEnv) (passResult, error) { return referencePass(b, specs, sz.refInsts, env) },
		close:  func() {},
	}, nil
}

func referencePass(b *synth.Bench, specs []distsweep.JobSpec, insts int64, env passEnv) (passResult, error) {
	out := passResult{budget: insts}
	for i, spec := range specs {
		sp := env.spans.Start(cellName(spec), 0)
		res, err := runAudited(b, spec)
		sp.End()
		o := output{name: fmt.Sprintf("cell %d", i), cells: 1, err: err}
		if err == nil {
			if o.digest, err = digestJSON(res); err != nil {
				return out, err
			}
		}
		out.outputs = append(out.outputs, o)
		out.cells = append(out.cells, cellRecord{spec: spec, res: distsweep.JobResult{Result: res, Audit: res.AuditFinal()}})
		out.insts += res.Insts
	}
	out.sims = len(specs)
	return out, nil
}

// runAudited runs one cell with a full audit probe attached and verifies the
// run's final accounting; a stream violation comes back as the error.
func runAudited(b *synth.Bench, spec distsweep.JobSpec) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			ae, ok := r.(*obs.AuditError)
			if !ok {
				panic(r)
			}
			err = ae
		}
	}()
	cfg := spec.Config.ToConfig()
	cfg.MaxInsts = spec.Insts
	aud := obs.NewAuditProbe(obs.AuditOptions{
		Width: cfg.FetchWidth, AllowBusOverlap: cfg.PipelinedMemory, SampleEvery: spec.AuditSample,
	})
	cfg.Probe = aud
	pred, err := newPredictor(spec)
	if err != nil {
		return res, err
	}
	res, err = core.Run(cfg, b.Image(), b.NewReader(spec.Seed, traceLimit(spec.Insts)), pred)
	if err != nil {
		return res, err
	}
	return res, aud.Verify(res.AuditFinal())
}

// ---- capture --------------------------------------------------------------

// recorder is a worker runner that keeps every job it runs with its result.
type recorder struct {
	run   distsweep.Runner
	mu    sync.Mutex
	cells []cellRecord
}

func (r *recorder) Run(spec distsweep.JobSpec) (distsweep.JobResult, error) {
	res, err := r.run(spec)
	if err == nil {
		r.mu.Lock()
		r.cells = append(r.cells, cellRecord{spec: spec, res: res})
		r.mu.Unlock()
	}
	return res, err
}

// capture runs one untimed pass that yields the workload's cells as JobSpecs
// with their results. Native instances return them from an ordinary pass;
// the others are dispatched to a recording loopback worker. uncovered counts
// the cells the wire could not carry, which ran in process unrecorded.
func capture(inst *instance, spans *obs.SpanTracer) (cells []cellRecord, out passResult, uncovered int, err error) {
	if inst.native {
		out, err = inst.pass(passEnv{})
		return out.cells, out, 0, err
	}
	rec := &recorder{run: experiments.NewJobRunner(nil).Run}
	lb, err := startLoopback(rec.Run)
	if err != nil {
		return nil, out, 0, err
	}
	defer lb.close()
	out, err = inst.pass(passEnv{spans: spans, dispatch: lb.coordinator(spans, nil)})
	cells = rec.cells
	return cells, out, out.sims - len(cells), err
}
