// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus ablation benches for the design choices
// DESIGN.md calls out and a raw engine-throughput bench.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each table/figure bench regenerates its artifact once per iteration and
// reports the rendered output size; use cmd/paperbench for the full-budget,
// human-readable renditions.
package specfetch_test

import (
	"testing"

	"specfetch"
	"specfetch/internal/experiments"
)

// benchOpt keeps the per-iteration cost of the table benches moderate while
// still exercising every benchmark and configuration the paper uses.
func benchOpt() experiments.Options {
	return experiments.Options{Insts: 200_000}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table3(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table5(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table6(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Table7(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure1(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(fig.String())))
	}
}

func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(fig.String())))
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure3(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(fig.String())))
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(fig.String())))
	}
}

// BenchmarkEngineThroughput measures raw simulation speed in simulated
// instructions per second (reported as bytes/op = instructions/op).
func BenchmarkEngineThroughput(b *testing.B) {
	bench, err := specfetch.BuildBenchmark(specfetch.GCC())
	if err != nil {
		b.Fatal(err)
	}
	const insts = 1_000_000
	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Resume
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := specfetch.RunBenchmark(bench, cfg, insts, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(res.Insts)
	}
}

// BenchmarkEngineNilProbe is BenchmarkEngineThroughput with the probe field
// explicitly nil — the shipped default. Comparing the two guards the
// zero-overhead claim of the observability layer: every probe hook is one
// predictable nil check, so this must stay within noise (<2%) of
// BenchmarkEngineThroughput on the pre-instrumentation engine.
func BenchmarkEngineNilProbe(b *testing.B) {
	bench, err := specfetch.BuildBenchmark(specfetch.GCC())
	if err != nil {
		b.Fatal(err)
	}
	const insts = 1_000_000
	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Resume
	cfg.Probe = nil
	cfg.SampleInterval = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := specfetch.RunBenchmark(bench, cfg, insts, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(res.Insts)
	}
}

// BenchmarkEngineRecorderProbe measures the instrumented path: a ring-buffer
// event recorder plus window series attached, quantifying the cost of
// full event capture relative to the nil-probe baseline.
func BenchmarkEngineRecorderProbe(b *testing.B) {
	bench, err := specfetch.BuildBenchmark(specfetch.GCC())
	if err != nil {
		b.Fatal(err)
	}
	const insts = 1_000_000
	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Resume
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := specfetch.NewEventRecorder(1 << 16)
		win := specfetch.NewWindowSeries()
		cfg.Probe = specfetch.MultiProbe(rec, win)
		cfg.SampleInterval = 10_000
		res, err := specfetch.RunBenchmark(bench, cfg, insts, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(res.Insts)
	}
}

// BenchmarkPolicies times each policy on the same workload so relative
// simulation cost is visible.
func BenchmarkPolicies(b *testing.B) {
	bench, err := specfetch.BuildBenchmark(specfetch.Groff())
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range specfetch.Policies() {
		pol := pol
		b.Run(pol.String(), func(b *testing.B) {
			cfg := specfetch.DefaultConfig()
			cfg.Policy = pol
			for i := 0; i < b.N; i++ {
				res, err := specfetch.RunBenchmark(bench, cfg, 300_000, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(res.Insts)
			}
		})
	}
}

// BenchmarkTraceGeneration measures the synthetic walker's speed.
func BenchmarkTraceGeneration(b *testing.B) {
	bench, err := specfetch.BuildBenchmark(specfetch.Cfront())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := bench.NewReader(uint64(i), 500_000)
		var insts int64
		for {
			rec, err := rd.Next()
			if err != nil {
				break
			}
			insts += int64(rec.N)
		}
		b.SetBytes(insts)
	}
}

// Ablation benches: one per design-choice study in DESIGN.md §6.

func BenchmarkAblationPrefetch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationPrefetch(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkAblationBTBCoupling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationBTBCoupling(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkAblationAssociativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationAssociativity(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkAblationFetchWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationFetchWidth(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkAblationPipelinedMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationPipelinedMemory(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkAblationRAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationRAS(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkAblationVictimCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationVictimCache(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkAblationMSHR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationMSHR(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkAblationCodeLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationCodeLayout(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

// BenchmarkLatencySweep regenerates the miss-latency sweep with crossover
// detection — the quantitative form of the paper's summary claim.
func BenchmarkLatencySweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.LatencySweep(experiments.Options{Insts: 100_000}, []int{3, 5, 10, 20})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

// BenchmarkSeedSensitivity measures the seed-noise analysis.
func BenchmarkSeedSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.SeedSensitivity(experiments.Options{Insts: 100_000}, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkAblationL2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationL2(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

func BenchmarkAblationContextSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.AblationContextSwitch(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}

// BenchmarkModernStudy measures the datacenter-footprint study.
func BenchmarkModernStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.ModernStudy(experiments.Options{Insts: 150_000})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(tab.String())))
	}
}
