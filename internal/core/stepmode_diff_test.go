package core

import (
	"reflect"
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/cache"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// The differential suite: the skip-ahead core and the reference stepper are
// the same machine, and these tests hold the two to bit-identity — equal
// Results via reflect.DeepEqual and byte-identical probe event streams —
// across every policy, the full stock benchmark suite, both paper miss
// penalties, and the extension knobs. This is the proof that makes
// StepSkipAhead safe as the zero-value default.

const diffInsts = 30_000

// runDiffMode executes one cell in the given step mode. A non-nil arena is
// threaded through (the skip side uses one, doubling as the proof that arena
// reuse is behaviour-neutral). When record is true, a full event recorder
// and a full-sampling audit probe are attached; the recorded events are
// returned and the audit identities are verified.
func runDiffMode(t *testing.T, cfg Config, bench *synth.Bench, seed uint64,
	mode StepMode, arena *Arena, record bool, sampleEvery int) (Result, []obs.Event) {
	t.Helper()
	cfg.StepMode = mode
	cfg.Arena = arena
	cfg.MaxInsts = diffInsts
	var rec *obs.EventRecorder
	var aud *obs.AuditProbe
	if record {
		rec = obs.NewEventRecorder(1 << 20)
		aud = obs.NewAuditProbe(obs.AuditOptions{
			Width:           cfg.FetchWidth,
			AllowBusOverlap: cfg.PipelinedMemory,
			SampleEvery:     sampleEvery,
		})
		cfg.Probe = obs.Multi(rec, aud)
	}
	rd := trace.NewLimitReader(bench.NewWalker(seed), diffInsts+diffInsts/4)
	pred, err := bpred.ByName("")
	if err != nil {
		t.Fatalf("predictor: %v", err)
	}
	res, err := Run(cfg, bench.Image(), rd, pred())
	if err != nil {
		t.Fatalf("%v policy %v mode %v: %v", bench.Profile().Name, cfg.Policy, mode, err)
	}
	if aud != nil {
		if verr := aud.Verify(res.AuditFinal()); verr != nil {
			t.Fatalf("%v policy %v mode %v: audit: %v", bench.Profile().Name, cfg.Policy, mode, verr)
		}
		if rec.Dropped() != 0 {
			t.Fatalf("event recorder overflowed (%d dropped); raise capacity", rec.Dropped())
		}
	}
	var evs []obs.Event
	if rec != nil {
		evs = rec.Events()
	}
	return res, evs
}

// diffCompare runs both modes on one cell and requires identical Results
// (and, when record is set, identical event streams).
func diffCompare(t *testing.T, cfg Config, bench *synth.Bench, seed uint64,
	arena *Arena, record bool, sampleEvery int) {
	t.Helper()
	ref, refEvs := runDiffMode(t, cfg, bench, seed, StepReference, nil, record, sampleEvery)
	fast, fastEvs := runDiffMode(t, cfg, bench, seed, StepSkipAhead, arena, record, sampleEvery)
	if !reflect.DeepEqual(ref, fast) {
		t.Errorf("%s policy %v: Results differ between modes\nreference: %+v\nskipahead: %+v",
			bench.Profile().Name, cfg.Policy, ref, fast)
	}
	if record && !reflect.DeepEqual(refEvs, fastEvs) {
		n := len(refEvs)
		if len(fastEvs) < n {
			n = len(fastEvs)
		}
		for i := 0; i < n; i++ {
			if !reflect.DeepEqual(refEvs[i], fastEvs[i]) {
				t.Errorf("%s policy %v: event %d differs\nreference: %+v\nskipahead: %+v",
					bench.Profile().Name, cfg.Policy, i, refEvs[i], fastEvs[i])
				return
			}
		}
		t.Errorf("%s policy %v: event count differs: reference %d, skipahead %d",
			bench.Profile().Name, cfg.Policy, len(refEvs), len(fastEvs))
	}
}

// TestStepModeDifferentialMatrix covers every policy x every stock profile x
// both paper miss penalties, with no probe attached — this is the only arm
// that exercises the bulk plain-issue fast path, which a probe disables.
// The 5-cycle cells record their miss bitmaps, so the two cores' MissBits
// are compared too. The skip side reuses one arena per profile across all
// its cells.
func TestStepModeDifferentialMatrix(t *testing.T) {
	t.Parallel()
	profiles := synth.Profiles()
	if testing.Short() {
		profiles = profiles[:4]
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			bench := synth.MustBuild(p)
			arena := NewArena()
			for _, pen := range []int{5, 20} {
				for _, pol := range Policies() {
					cfg := DefaultConfig()
					cfg.Policy = pol
					cfg.MissPenalty = pen
					cfg.RecordMisses = pen == 5
					diffCompare(t, cfg, bench, p.Seed^0x5eed, arena, false, 0)
				}
			}
		})
	}
}

// TestStepModeEventStreamIdentity attaches a full event recorder plus the
// audit probe — once fully sampled, once sparsely — and requires the two
// modes to emit byte-identical event streams (every stall segment, fill,
// bus grant, redirect, and window at the true completion cycle, not the
// post-jump clock). With a probe attached the engine takes the stepped
// outer loop, so this arm pins the jumping stall/window accounting.
func TestStepModeEventStreamIdentity(t *testing.T) {
	t.Parallel()
	profiles := []synth.Profile{synth.Su2cor(), synth.Fpppp(), synth.GCC(), synth.DBpp()}
	if testing.Short() {
		profiles = profiles[:2]
	}
	for _, p := range profiles {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			bench := synth.MustBuild(p)
			for _, pol := range Policies() {
				cfg := DefaultConfig()
				cfg.Policy = pol
				cfg.MissPenalty = 20
				cfg.SampleInterval = 1000 // exercise the sampler plane too
				diffCompare(t, cfg, bench, p.Seed^0xcafe, nil, true, 1)
				diffCompare(t, cfg, bench, p.Seed^0xcafe, nil, true, 7)
			}
		})
	}
}

// TestStepModeDifferentialExtensions sweeps the extension knobs — prefetch
// engines, pipelined memory, L2, MSHRs, RAS, victim buffer, associativity,
// cache flushing, narrow and wide fetch — through both modes. Prefetch
// configurations disable bulk issue but still take the jumping stall and
// window paths.
func TestStepModeDifferentialExtensions(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"nextline-prefetch", func(c *Config) { c.NextLinePrefetch = true }},
		{"target-prefetch", func(c *Config) { c.NextLinePrefetch = true; c.TargetPrefetch = true }},
		{"stream-prefetch", func(c *Config) { c.NextLinePrefetch = true; c.StreamDepth = 4 }},
		{"pipelined-memory", func(c *Config) { c.PipelinedMemory = true }},
		{"l2", func(c *Config) {
			l2 := cache.Config{SizeBytes: 64 * 1024, LineBytes: c.ICache.LineBytes, Assoc: 2}
			c.L2 = &l2
			c.L2Latency = 3
		}},
		{"mshrs", func(c *Config) { c.MSHRs = 4 }},
		{"ras", func(c *Config) { c.RASDepth = 8 }},
		{"victim", func(c *Config) { c.ICache.VictimLines = 4 }},
		{"assoc2", func(c *Config) { c.ICache.Assoc = 2 }},
		{"flush", func(c *Config) { c.FlushInterval = 7_777 }},
		{"narrow", func(c *Config) { c.FetchWidth = 1; c.MaxUnresolved = 1 }},
		{"wide", func(c *Config) { c.FetchWidth = 8; c.MaxUnresolved = 8 }},
		{"depth1", func(c *Config) { c.MaxUnresolved = 1 }},
		{"tiny-cache", func(c *Config) { c.ICache.SizeBytes = 1024 }},
	}
	benches := []*synth.Bench{synth.MustBuild(synth.Su2cor()), synth.MustBuild(synth.Fpppp())}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			arena := NewArena()
			for _, bench := range benches {
				for _, pol := range Policies() {
					cfg := DefaultConfig()
					cfg.Policy = pol
					tc.mut(&cfg)
					diffCompare(t, cfg, bench, 0xd1ff^uint64(pol), arena, false, 0)
				}
			}
		})
	}
}

// TestArenaReuseNeutral runs the same cell back to back on one arena and
// against a fresh engine: reuse must not leak state between runs.
func TestArenaReuseNeutral(t *testing.T) {
	t.Parallel()
	bench := synth.MustBuild(synth.GCC())
	cfg := DefaultConfig()
	cfg.Policy = Resume
	fresh, _ := runDiffMode(t, cfg, bench, 42, StepSkipAhead, nil, false, 0)
	arena := NewArena()
	for i := 0; i < 3; i++ {
		re, _ := runDiffMode(t, cfg, bench, 42, StepSkipAhead, arena, false, 0)
		if !reflect.DeepEqual(fresh, re) {
			t.Fatalf("arena run %d differs from fresh run\nfresh: %+v\narena: %+v", i, fresh, re)
		}
	}
	// A geometry change mid-stream rebuilds the cache cleanly.
	cfg.ICache.SizeBytes *= 4
	big, _ := runDiffMode(t, cfg, bench, 42, StepSkipAhead, arena, false, 0)
	cfg.ICache.SizeBytes /= 4
	small, _ := runDiffMode(t, cfg, bench, 42, StepSkipAhead, arena, false, 0)
	if !reflect.DeepEqual(fresh, small) {
		t.Fatalf("arena run after geometry change differs from fresh run")
	}
	if reflect.DeepEqual(big, small) {
		t.Fatalf("4x cache produced identical result; geometry change not applied")
	}
}

// TestArenaBusy: one arena, two engines — the second NewEngine must fail.
func TestArenaBusy(t *testing.T) {
	t.Parallel()
	bench := synth.MustBuild(synth.Su2cor())
	cfg := DefaultConfig()
	cfg.Arena = NewArena()
	pred, _ := bpred.ByName("")
	rd := trace.NewLimitReader(bench.NewWalker(1), 1000)
	if _, err := NewEngine(cfg, bench.Image(), rd, pred()); err != nil {
		t.Fatalf("first engine: %v", err)
	}
	if _, err := NewEngine(cfg, bench.Image(), rd, pred()); err == nil {
		t.Fatalf("second engine on a busy arena did not fail")
	}
}
