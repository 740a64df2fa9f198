// Package specfetch reproduces "Instruction Cache Fetch Policies for
// Speculative Execution" (Lee, Baer, Calder, Grunwald; ISCA 1995): a
// trace-driven, cycle-level model of a speculative superscalar fetch unit
// with five I-cache miss policies (Oracle, Optimistic, Resume, Pessimistic,
// Decode), a decoupled BTB + gshare-PHT branch architecture, next-line
// prefetching, and the paper's ISPI penalty accounting.
//
// Quick start:
//
//	bench, _ := specfetch.BuildBenchmark(specfetch.GCC())
//	cfg := specfetch.DefaultConfig()
//	cfg.Policy = specfetch.Resume
//	res, _ := specfetch.RunBenchmark(bench, cfg, 1_000_000, 1)
//	fmt.Printf("ISPI %.3f\n", res.TotalISPI())
//
// The package is a thin facade over the internal packages. It exports what
// its Example functions and the README show: running a policy over a stock
// or kernel benchmark, over a hand-built program and trace, and with a
// window series attached. The commands under cmd/ import the internal
// packages directly; cmd/paperbench regenerates the paper's tables and
// figures.
package specfetch

import (
	"specfetch/internal/bpred"
	"specfetch/internal/core"
	"specfetch/internal/isa"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/program"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// Policy selects how I-cache misses on speculative paths are handled.
type Policy = core.Policy

// Resume fills a speculative miss into a one-line resume buffer and
// redirects as soon as a misprediction is detected; Policies lists it with
// the other four policies of the paper's Table 1.
const Resume = core.Resume

// Policies lists the five static policies in the paper's presentation
// order.
func Policies() []Policy { return core.Policies() }

// DefaultConfig is the paper's baseline machine: 4-wide fetch, depth-4
// speculation, 8K direct-mapped I-cache with 32-byte lines, 5-cycle miss
// penalty.
func DefaultConfig() core.Config { return core.DefaultConfig() }

// Result reports one run's measurements: cycles, per-component lost issue
// slots, branch events, traffic, and miss counts.
type Result = core.Result

// Components lists the penalty components of Figures 1-4 in stacking
// order.
func Components() []metrics.Component { return metrics.Components() }

// Addr is a byte address in the simulated instruction space.
type Addr = isa.Addr

// The control-transfer kinds a hand-built program uses.
const (
	CondBranch = isa.CondBranch
	Call       = isa.Call
	Return     = isa.Return
)

// Inst is one static instruction.
type Inst = program.Inst

// NewImageBuilder starts a static code image at the given base address;
// the engine walks the image on wrong paths.
func NewImageBuilder(base Addr) (*program.Builder, error) { return program.NewBuilder(base) }

// TraceRecord is one dynamic basic block of the correct execution path.
type TraceRecord = trace.Record

// NewSliceTrace replays an in-memory record slice.
func NewSliceTrace(recs []TraceRecord) *trace.SliceReader { return trace.NewSliceReader(recs) }

// NewPredictor builds the paper's baseline branch architecture: a 64-entry
// 4-way BTB plus a 512-entry gshare PHT, decoupled.
func NewPredictor() bpred.Predictor { return bpred.NewDefaultDecoupled() }

// Run simulates one configuration over an explicit image/trace/predictor.
func Run(cfg core.Config, img *program.Image, rd trace.Reader, pred bpred.Predictor) (Result, error) {
	return core.Run(cfg, img, rd, pred)
}

// RunWithProbe is Run with an attached probe and sampling interval — a
// convenience for callers that do not want to touch Config fields.
func RunWithProbe(cfg core.Config, img *program.Image, rd trace.Reader, pred bpred.Predictor, p obs.Probe, sampleEvery int64) (Result, error) {
	cfg.Probe = p
	cfg.SampleInterval = sampleEvery
	return core.Run(cfg, img, rd, pred)
}

// NewWindowSeries builds an empty window store, a probe that captures one
// record per sample interval. It is sample-only: attached alone it keeps
// the skip-ahead engine's bulk path enabled.
func NewWindowSeries() *obs.WindowSeries { return obs.NewWindowSeries() }

// SeriesPoints derives the time-series rows (ISPI breakdown, IPC, miss
// rate, bus occupancy) from a window series' records.
func SeriesPoints(rs []obs.WindowRecord) []obs.SeriesPoint { return obs.SeriesPoints(rs) }

// Bench is a generated synthetic benchmark: static image plus dynamic
// behaviour, able to produce correct-path traces.
type Bench = synth.Bench

// GCC is the stock profile standing in for the paper's gcc; Profiles and
// ProfileByName reach all 13, calibrated against the paper's Table 2/3.
var GCC = synth.GCC

// Profiles returns the stock benchmark profiles in the paper's order.
func Profiles() []synth.Profile { return synth.Profiles() }

// ProfileByName finds a stock profile by benchmark name.
func ProfileByName(name string) (synth.Profile, bool) { return synth.ProfileByName(name) }

// BuildBenchmark deterministically generates the benchmark for a profile.
func BuildBenchmark(p synth.Profile) (*Bench, error) { return synth.Build(p) }

// RunBenchmark simulates cfg over a synthetic benchmark for the given
// correct-path instruction budget, using a fresh baseline predictor. The
// stream seed selects the dynamic trace; reusing a seed replays the same
// trace. A budget that is not positive, or whose stream limit overflows, is
// an error.
func RunBenchmark(b *Bench, cfg core.Config, insts int64, streamSeed uint64) (Result, error) {
	limit, err := trace.BudgetLimit(insts)
	if err != nil {
		return Result{}, err
	}
	cfg.MaxInsts = insts
	return core.Run(cfg, b.Image(), b.NewReader(streamSeed, limit), NewPredictor())
}

// LoopKernel builds a microbenchmark: a single loop of bodyInsts plain
// instructions with geometric trip counts. Cache/branch behaviour is
// analytically known, for controlled policy studies.
func LoopKernel(bodyInsts int, trips float64) (*Bench, error) {
	return synth.LoopKernel(bodyInsts, trips)
}

// CallKernel builds a microbenchmark: a call chain of the given depth,
// isolating call/return prediction.
func CallKernel(depth, bodyInsts int) (*Bench, error) { return synth.CallKernel(depth, bodyInsts) }

// DispatchKernel builds a microbenchmark: an interpreter-style indirect
// dispatch loop over fanout handlers, isolating BTB target misprediction.
func DispatchKernel(fanout, handlerInsts int) (*Bench, error) {
	return synth.DispatchKernel(fanout, handlerInsts)
}
