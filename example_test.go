package specfetch_test

import (
	"fmt"
	"log"

	"specfetch"
)

// Example is the quick start: build one synthetic benchmark, run one
// policy on the paper's baseline machine, and print the penalty breakdown.
func Example() {
	// A calibrated stand-in for the paper's gcc workload.
	bench, err := specfetch.BuildBenchmark(specfetch.GCC())
	if err != nil {
		log.Fatal(err)
	}

	// The paper's baseline machine: 4-wide, depth-4 speculation, 8K
	// direct-mapped I-cache, 5-cycle miss penalty.
	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Resume

	res, err := specfetch.RunBenchmark(bench, cfg, 1_000_000, 1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("policy %s over %d instructions: %.3f issue slots lost per instruction\n",
		cfg.Policy, res.Insts, res.TotalISPI())
	for _, c := range specfetch.Components() {
		fmt.Printf("  %-14s %.3f\n", c, res.ISPI(c))
	}
	fmt.Printf("I-cache miss ratio %.2f%%, memory traffic %d lines\n",
		res.MissRatioPct(), res.Traffic.Total())
	// Output:
	// policy resume over 1000000 instructions: 1.628 issue slots lost per instruction
	//   branch_full    0.104
	//   branch         0.962
	//   force_resolve  0.000
	//   bus            0.127
	//   rt_icache      0.435
	//   wrong_icache   0.000
	// I-cache miss ratio 2.24%, memory traffic 42132 lines
}

// Example_customTrace drives the engine with a hand-built program and
// trace instead of the synthetic workload generator: the path a trace
// captured from a real binary takes. The program is a loop whose
// data-dependent branch skips a call to a helper every third iteration:
//
//	loop:   8 plains; cond -> skip (taken every 3rd iteration); call helper
//	skip:   6 plains; cond -> loop (taken until the last iteration)
//	helper: 12 plains; ret
func Example_customTrace() {
	const head, middle, body, iters = 8, 6, 12, 2000
	loop := specfetch.Addr(0x1000)
	call := loop.Plus(head + 1)
	skip := call.Plus(1) // also where the helper returns to
	helper := skip.Plus(middle + 1)

	b, err := specfetch.NewImageBuilder(loop)
	if err != nil {
		log.Fatal(err)
	}
	b.AppendPlain(head)
	b.Append(specfetch.Inst{Kind: specfetch.CondBranch, Target: skip})
	b.Append(specfetch.Inst{Kind: specfetch.Call, Target: helper})
	b.AppendPlain(middle)
	b.Append(specfetch.Inst{Kind: specfetch.CondBranch, Target: loop})
	b.AppendPlain(body)
	b.Append(specfetch.Inst{Kind: specfetch.Return})
	img, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// One record per dynamic basic block, each ending in its branch.
	var recs []specfetch.TraceRecord
	for i := 0; i < iters; i++ {
		skipped := i%3 == 2
		cond := specfetch.TraceRecord{Start: loop, N: head + 1, BrKind: specfetch.CondBranch, Taken: skipped}
		if skipped {
			cond.Target = skip
		}
		recs = append(recs, cond)
		if !skipped {
			recs = append(recs,
				specfetch.TraceRecord{Start: call, N: 1, BrKind: specfetch.Call, Taken: true, Target: helper},
				specfetch.TraceRecord{Start: helper, N: body + 1, BrKind: specfetch.Return, Taken: true, Target: skip})
		}
		back := specfetch.TraceRecord{Start: skip, N: middle + 1, BrKind: specfetch.CondBranch, Taken: i != iters-1}
		if back.Taken {
			back.Target = loop
		}
		recs = append(recs, back)
	}

	fmt.Printf("static program: %d instructions, trace: %d records\n", img.NumInsts(), len(recs))
	for _, pol := range specfetch.Policies() {
		cfg := specfetch.DefaultConfig()
		cfg.Policy = pol
		// Even a 1K cache holds the 120-byte program, so only its four
		// cold misses show.
		cfg.ICache.SizeBytes = 1024
		res, err := specfetch.Run(cfg, img, specfetch.NewSliceTrace(recs), specfetch.NewPredictor())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s ISPI %.3f  (miss %.2f%%, traffic %d lines)\n",
			pol, res.TotalISPI(), res.MissRatioPct(), res.Traffic.Total())
	}
	// Output:
	// static program: 30 instructions, trace: 6668 records
	// oracle       ISPI 0.476  (miss 0.01%, traffic 4 lines)
	// optimistic   ISPI 0.476  (miss 0.01%, traffic 4 lines)
	// resume       ISPI 0.476  (miss 0.01%, traffic 4 lines)
	// pessimistic  ISPI 0.477  (miss 0.01%, traffic 4 lines)
	// decode       ISPI 0.476  (miss 0.01%, traffic 4 lines)
}

// Example_kernels runs the microbenchmark kernels: workloads whose cache
// and branch behaviour is known analytically, each isolating one mechanism.
//
//   - LoopKernel isolates capacity. A loop body that fits the 8K cache
//     misses only on its cold pass; a 16K body evicts every 32-byte line
//     before the loop comes back to it, so it misses once per 8
//     instructions, 12.5% of them.
//   - DispatchKernel isolates BTB target misprediction. Uniform 8-way
//     indirect dispatch defeats a last-target BTB on 7 of 8 dispatches:
//     300,000 instructions at 10 per dispatch predict 26,250. The policies
//     differ only in how they handle I-cache misses, and the whole
//     236-byte kernel stays cached, so all five lose the same slots.
//   - CallKernel isolates call/return prediction: a deep, stable call
//     chain misfetches only while the BTB warms up.
func Example_kernels() {
	const insts = 300_000
	run := func(b *specfetch.Bench, pol specfetch.Policy) specfetch.Result {
		cfg := specfetch.DefaultConfig()
		cfg.Policy = pol
		res, err := specfetch.RunBenchmark(b, cfg, insts, 1)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	build := func(b *specfetch.Bench, err error) *specfetch.Bench {
		if err != nil {
			log.Fatal(err)
		}
		return b
	}

	fmt.Println("LoopKernel: capacity behaviour (Resume policy, 8K cache)")
	small := run(build(specfetch.LoopKernel(1024, 100)), specfetch.Resume) // 4KB body: fits
	big := run(build(specfetch.LoopKernel(4096, 100)), specfetch.Resume)   // 16KB body: thrashes
	fmt.Printf("  4KB body:  miss %.2f%% (cold only), ISPI %.3f\n", small.MissRatioPct(), small.TotalISPI())
	fmt.Printf("  16KB body: miss %.2f%% (~12.5%% analytic), ISPI %.3f\n", big.MissRatioPct(), big.TotalISPI())

	fmt.Println("DispatchKernel: BTB target mispredicts without I-cache misses cost every policy alike")
	disp := build(specfetch.DispatchKernel(8, 6))
	for _, pol := range specfetch.Policies() {
		res := run(disp, pol)
		fmt.Printf("  %-12s ISPI %.3f (miss %.2f%%, BTB target mispredicts: %d)\n",
			pol, res.TotalISPI(), res.MissRatioPct(), res.Events.BTBMispredicts)
	}

	fmt.Println("CallKernel: a deep stable call chain predicts almost perfectly")
	res := run(build(specfetch.CallKernel(8, 12)), specfetch.Resume)
	fmt.Printf("  depth 8: ISPI %.3f, %d misfetches (warmup), %d target mispredicts\n",
		res.TotalISPI(), res.Events.BTBMisfetches, res.Events.BTBMispredicts)
	// Output:
	// LoopKernel: capacity behaviour (Resume policy, 8K cache)
	//   4KB body:  miss 0.04% (cold only), ISPI 0.009
	//   16KB body: miss 12.52% (~12.5% analytic), ISPI 2.504
	// DispatchKernel: BTB target mispredicts without I-cache misses cost every policy alike
	//   oracle       ISPI 1.553 (miss 0.00%, BTB target mispredicts: 26189)
	//   optimistic   ISPI 1.553 (miss 0.00%, BTB target mispredicts: 26189)
	//   resume       ISPI 1.553 (miss 0.00%, BTB target mispredicts: 26189)
	//   pessimistic  ISPI 1.553 (miss 0.00%, BTB target mispredicts: 26189)
	//   decode       ISPI 1.553 (miss 0.00%, BTB target mispredicts: 26189)
	// CallKernel: a deep stable call chain predicts almost perfectly
	//   depth 8: ISPI 0.002, 17 misfetches (warmup), 0 target mispredicts
}

// ExampleRunWithProbe attaches a window series to a run and reads it back
// as a time series, one point per 100,000 instructions. The last point's
// cumulative ISPI is the run's own total.
func ExampleRunWithProbe() {
	prof, ok := specfetch.ProfileByName("groff")
	if !ok {
		log.Fatal("no groff profile")
	}
	bench, err := specfetch.BuildBenchmark(prof)
	if err != nil {
		log.Fatal(err)
	}
	cfg := specfetch.DefaultConfig()
	cfg.Policy = specfetch.Resume
	cfg.MaxInsts = 500_000

	win := specfetch.NewWindowSeries()
	res, err := specfetch.RunWithProbe(cfg, bench.Image(), bench.NewReader(1, 2*cfg.MaxInsts),
		specfetch.NewPredictor(), win, 100_000)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range specfetch.SeriesPoints(win.Records()) {
		fmt.Printf("%6d insts: window ISPI %.3f, cumulative %.6f\n", p.Insts, p.ISPI, p.CumISPI)
	}
	fmt.Printf("run total ISPI %.6f\n", res.TotalISPI())
	// Output:
	// 100000 insts: window ISPI 2.291, cumulative 2.291100
	// 200000 insts: window ISPI 2.215, cumulative 2.253140
	// 300000 insts: window ISPI 2.267, cumulative 2.257820
	// 400000 insts: window ISPI 2.235, cumulative 2.252007
	// 500000 insts: window ISPI 2.247, cumulative 2.251096
	// run total ISPI 2.251096
}
