package core

import (
	"math/rand"
	"reflect"
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/cache"
	"specfetch/internal/metrics"
	"specfetch/internal/synth"
)

// TestEngineInvariantsUnderRandomConfigs throws randomized (but valid)
// machine configurations at the engine and checks the global invariants
// that must hold for every one of them:
//
//   - no simulation errors,
//   - slot conservation (cycles*width = useful + lost, last-cycle slack),
//   - Oracle/Pessimistic never fill on wrong paths,
//   - force_resolve only for Pessimistic/Decode,
//   - wrong_icache never for Oracle/Resume/Pessimistic,
//   - prefetch traffic only when a prefetcher is on,
//   - deterministic reruns.
func TestEngineInvariantsUnderRandomConfigs(t *testing.T) {
	bench := synth.MustBuild(synth.Ditroff())
	rng := rand.New(rand.NewSource(0xfee1600d))
	const trials = 60
	const insts = 20_000

	for i := 0; i < trials; i++ {
		cfg := DefaultConfig()
		cfg.Policy = Policies()[rng.Intn(len(Policies()))]
		cfg.FetchWidth = 1 << rng.Intn(4)   // 1..8
		cfg.MaxUnresolved = 1 + rng.Intn(8) // 1..8
		cfg.MissPenalty = 1 + rng.Intn(30)  // 1..30
		cfg.DecodeLatency = 1 + rng.Intn(3) // 1..3
		cfg.ResolveLatency = cfg.DecodeLatency + rng.Intn(5)
		cfg.ICache = cache.Config{
			SizeBytes: 1024 << rng.Intn(6), // 1K..32K
			LineBytes: 16 << rng.Intn(3),   // 16..64
			Assoc:     1 << rng.Intn(3),    // 1..4
		}
		if rng.Intn(2) == 0 {
			cfg.ICache.VictimLines = rng.Intn(8)
		}
		cfg.NextLinePrefetch = rng.Intn(2) == 0
		cfg.TargetPrefetch = rng.Intn(3) == 0
		if rng.Intn(3) == 0 {
			cfg.StreamDepth = rng.Intn(6)
		}
		cfg.PipelinedMemory = rng.Intn(3) == 0
		if rng.Intn(3) == 0 {
			cfg.RASDepth = 1 << rng.Intn(6)
		}
		if rng.Intn(3) == 0 {
			cfg.MSHRs = 1 + rng.Intn(8)
		}
		cfg.MaxInsts = insts
		if err := cfg.Validate(); err != nil {
			t.Fatalf("trial %d: generated invalid config: %v\n%+v", i, err, cfg)
		}

		seed := rng.Uint64()
		res, err := Run(cfg, bench.Image(), bench.NewReader(seed, insts*2), bpred.NewDefaultDecoupled())
		if err != nil {
			t.Fatalf("trial %d (%+v): %v", i, cfg, err)
		}

		total := res.Cycles.Slots(cfg.FetchWidth)
		got := Slots(res.Insts) + res.Lost.Total()
		if diff := total - got; diff < 0 || diff >= Slots(cfg.FetchWidth) {
			t.Errorf("trial %d: slot conservation broken (diff %d)\ncfg %+v", i, diff, cfg)
		}
		switch cfg.Policy {
		case Oracle, Pessimistic:
			if res.Traffic.WrongPathFills != 0 {
				t.Errorf("trial %d: %s filled %d wrong-path lines", i, cfg.Policy, res.Traffic.WrongPathFills)
			}
		default: // the other policies may fill on wrong paths
		}
		switch cfg.Policy {
		case Oracle, Optimistic, Resume:
			if res.Lost[metrics.ForceResolve] != 0 {
				t.Errorf("trial %d: %s charged force_resolve", i, cfg.Policy)
			}
		default: // Pessimistic/Decode gate fills on resolve/decode
		}
		switch cfg.Policy {
		case Oracle, Resume, Pessimistic:
			if res.Lost[metrics.WrongICache] != 0 {
				t.Errorf("trial %d: %s charged wrong_icache", i, cfg.Policy)
			}
		default: // Optimistic/Decode block on wrong-path fills
		}
		if !cfg.NextLinePrefetch && !cfg.TargetPrefetch && cfg.StreamDepth == 0 &&
			res.Traffic.PrefetchFills != 0 {
			t.Errorf("trial %d: prefetch traffic without a prefetcher", i)
		}

		// Determinism and accounting: an identical rerun with the invariant
		// auditor attached gives bit-identical results, no streaming
		// violation, and verified final identities.
		aud := newAuditor(cfg)
		acfg := cfg
		acfg.Probe = aud
		res2, err := Run(acfg, bench.Image(), bench.NewReader(seed, insts*2), bpred.NewDefaultDecoupled())
		if err != nil {
			t.Fatalf("trial %d rerun: %v", i, err)
		}
		if !reflect.DeepEqual(res, res2) {
			t.Errorf("trial %d: nondeterministic results\ncfg %+v", i, cfg)
		}
		if err := aud.Verify(res2.AuditFinal()); err != nil {
			t.Errorf("trial %d: %v\ncfg %+v", i, err, cfg)
		}
	}
}
