package core

import (
	"reflect"
	"sync"
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/cache"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// FuzzStepModeEquivalence is the property-based arm of the differential
// suite: the fuzzer drives the full Config knob space (non-power-of-two
// fetch widths, minimal latencies, tiny caches, every extension) plus the
// walker seed, and every input must yield bit-identical final Results from
// the skip-ahead core and the reference stepper. `go test` runs the seeded
// corpus below as regular unit cases; `go test -fuzz=FuzzStepModeEquivalence
// ./internal/core` explores beyond it.

// fuzzBenches builds one synthetic benchmark per stock profile, once per
// process (fuzz workers reuse the process, so this amortizes).
var fuzzBenches = sync.OnceValue(func() []*synth.Bench {
	ps := synth.Profiles()
	bs := make([]*synth.Bench, len(ps))
	for i, p := range ps {
		bs[i] = synth.MustBuild(p)
	}
	return bs
})

// fuzzConfig decodes a 47-bit knob word into a Config. Fields are consumed
// in a fixed order so corpus entries stay interpretable; every decoded value
// lands in (or is clamped to) its legal range, and Validate is still run on
// the result as a belt-and-braces skip.
func fuzzConfig(bits uint64) Config {
	take := func(n uint) uint64 {
		v := bits & (1<<n - 1)
		bits >>= n
		return v
	}
	cfg := DefaultConfig()
	// Static policies only: Adaptive needs a chooser, and its bulk-boundary
	// equivalence has its own differential suite (adapt_test.go).
	cfg.Policy = Policies()[take(3)%uint64(len(Policies()))]
	cfg.FetchWidth = int(take(3)) + 1    // 1..8, non-powers of two included
	cfg.MaxUnresolved = int(take(2)) + 1 // 1..4
	cfg.MissPenalty = int(take(5)) + 1   // 1..32
	cfg.DecodeLatency = int(take(2)) + 1 // 1..4
	cfg.ResolveLatency = cfg.DecodeLatency + int(take(2))
	cfg.ICache.SizeBytes = 1024 << take(2) // 1K..8K
	cfg.ICache.LineBytes = 16 << take(1)   // 16 or 32
	cfg.ICache.Assoc = 1 << take(1)        // 1 or 2
	cfg.ICache.VictimLines = int(take(2))  // 0..3
	cfg.MSHRs = int(take(2))               // 0..3
	cfg.RASDepth = int(take(2)) * 4        // 0, 4, 8, 12
	cfg.NextLinePrefetch = take(1) == 1
	if take(1) == 1 {
		cfg.NextLinePrefetch = true
		cfg.TargetPrefetch = true
	}
	cfg.StreamDepth = int(take(2)) // 0..3
	if cfg.StreamDepth > 0 {
		cfg.NextLinePrefetch = true
	}
	cfg.PipelinedMemory = take(1) == 1
	if take(1) == 1 {
		l2 := cache.Config{SizeBytes: 16 * 1024, LineBytes: cfg.ICache.LineBytes, Assoc: 2}
		cfg.L2 = &l2
		cfg.L2Latency = 1 + int(take(2))
		if cfg.L2Latency > cfg.MissPenalty {
			cfg.L2Latency = cfg.MissPenalty
		}
	} else {
		take(2)
	}
	if take(1) == 1 {
		cfg.FlushInterval = 500 + int64(take(10))
	} else {
		take(10)
	}
	cfg.RecordMisses = take(1) == 1
	return cfg
}

func FuzzStepModeEquivalence(f *testing.F) {
	// The seeded corpus covers each structural regime at least once: the
	// paper baseline, minimal latencies, narrow and wide fetch, every
	// extension knob, and a few dense words that set many at a time.
	f.Add(uint64(0), uint64(1), uint8(0)) // near-baseline, policy 0
	f.Add(uint64(0x0000_0000_0000_0001), uint64(2), uint8(1))
	f.Add(uint64(0x0000_0000_0000_ffff), uint64(3), uint8(2))  // min penalty regime
	f.Add(uint64(0x0000_0000_ffff_0000), uint64(4), uint8(3))  // cache geometry bits
	f.Add(uint64(0x0000_3fff_0000_0000), uint64(5), uint8(4))  // prefetch + L2 bits
	f.Add(uint64(0x3fff_c000_0000_0000), uint64(6), uint8(5))  // flush bits
	f.Add(uint64(0x1234_5678_9abc_def0), uint64(7), uint8(6))  // dense mixed
	f.Add(uint64(0xfedc_ba98_7654_3210), uint64(8), uint8(9))  // dense mixed
	f.Add(uint64(0xaaaa_aaaa_aaaa_aaaa), uint64(9), uint8(11)) // alternating
	f.Add(uint64(0x5555_5555_5555_5555), uint64(10), uint8(12))
	f.Add(uint64(1)<<46, uint64(11), uint8(7)) // baseline recording its miss bitmap

	f.Fuzz(func(t *testing.T, bits, seed uint64, profileIdx uint8) {
		cfg := fuzzConfig(bits)
		if err := cfg.Validate(); err != nil {
			t.Skip(err)
		}
		benches := fuzzBenches()
		bench := benches[int(profileIdx)%len(benches)]

		const insts = 6_000
		cfg.MaxInsts = insts
		runMode := func(mode StepMode, arena *Arena) (Result, error) {
			c := cfg
			c.StepMode = mode
			c.Arena = arena
			rd := trace.NewLimitReader(bench.NewWalker(seed), insts+insts/4)
			return Run(c, bench.Image(), rd, bpred.NewDefaultDecoupled())
		}
		ref, refErr := runMode(StepReference, nil)
		fast, fastErr := runMode(StepSkipAhead, NewArena())
		switch {
		case (refErr == nil) != (fastErr == nil):
			t.Fatalf("error mismatch: reference %v, skipahead %v\ncfg: %+v", refErr, fastErr, cfg)
		case refErr != nil:
			if refErr.Error() != fastErr.Error() {
				t.Fatalf("errors differ: reference %q, skipahead %q\ncfg: %+v", refErr, fastErr, cfg)
			}
		case !reflect.DeepEqual(ref, fast):
			t.Fatalf("Results differ (profile %s, seed %d)\ncfg: %+v\nreference: %+v\nskipahead: %+v",
				bench.Profile().Name, seed, cfg, ref, fast)
		}
	})
}
