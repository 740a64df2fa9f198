// Benchmark harness: BenchmarkCatalogue times one sub-benchmark per
// artifact of experiments.Catalogue() (the paper's tables and figures, the
// latency sweep, the modern study and the ablations), and the engine
// benches time raw simulation.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each artifact bench regenerates its artifact once per iteration and
// reports the rendered output size; use cmd/paperbench for the full-budget,
// human-readable renditions.
package specfetch_test

import (
	"bytes"
	"testing"

	"specfetch"
	"specfetch/internal/experiments"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
)

// BenchmarkCatalogue regenerates each catalogue artifact at a budget that
// keeps an iteration moderate while still exercising every benchmark and
// configuration the artifact uses.
func BenchmarkCatalogue(b *testing.B) {
	for _, a := range experiments.Catalogue() {
		b.Run(a.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := a.Build(experiments.Options{Insts: 200_000})
				if err != nil {
					b.Fatal(err)
				}
				var out bytes.Buffer
				if err := r.Render(&out); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(out.Len()))
			}
		})
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
		rec := obs.NewEventRecorder(1 << 16)
		win := obs.NewWindowSeries()
		cfg.Probe = obs.Multi(rec, win)
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
	bench, err := specfetch.BuildBenchmark(synth.Groff())
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
	bench, err := specfetch.BuildBenchmark(synth.Cfront())
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
