package core

import (
	"reflect"
	"strings"
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
)

func newAuditor(cfg Config) *obs.AuditProbe {
	return obs.NewAuditProbe(obs.AuditOptions{
		Width:           cfg.FetchWidth,
		AllowBusOverlap: cfg.PipelinedMemory,
	})
}

// TestAuditAllPolicies runs every policy over every synthetic profile with
// the auditor attached and checks that (a) no streaming invariant fires,
// (b) the final accounting identities verify, and (c) the audited Result is
// bit-identical to an unaudited run — observation must not perturb the
// simulation.
func TestAuditAllPolicies(t *testing.T) {
	const insts = 50_000
	for pi, prof := range synth.Profiles() {
		bench := synth.MustBuild(prof)
		for _, pol := range Policies() {
			cfg := DefaultConfig()
			cfg.Policy = pol
			cfg.MaxInsts = insts
			// Vary the machine across profiles so the audited paths cover
			// prefetching, pipelined memory, and non-default widths.
			switch pi % 4 {
			case 1:
				cfg.NextLinePrefetch = true
			case 2:
				cfg.PipelinedMemory = true
				cfg.FetchWidth = 2
			case 3:
				cfg.TargetPrefetch = true
				cfg.StreamDepth = 2
				cfg.MissPenalty = 20
			}

			plain, err := Run(cfg, bench.Image(), bench.NewReader(1, insts*2), bpred.NewDefaultDecoupled())
			if err != nil {
				t.Fatalf("%s/%s: %v", prof.Name, pol, err)
			}
			aud := newAuditor(cfg)
			acfg := cfg
			acfg.Probe = aud
			audited, err := Run(acfg, bench.Image(), bench.NewReader(1, insts*2), bpred.NewDefaultDecoupled())
			if err != nil {
				t.Fatalf("%s/%s audited: %v", prof.Name, pol, err)
			}
			if !reflect.DeepEqual(audited, plain) {
				t.Errorf("%s/%s: audited run diverged from unaudited run\naudited   %+v\nunaudited %+v",
					prof.Name, pol, audited, plain)
			}
			if err := aud.Verify(audited.AuditFinal()); err != nil {
				t.Errorf("%s/%s: %v", prof.Name, pol, err)
			}
		}
	}
}

// TestAuditDetectsInjectedAccountingBug audits a clean run, then feeds
// Verify deliberately corrupted finals — the kind of numbers a
// double-charge or dropped-counter bug in the engine would produce — and
// requires a diagnosis.
func TestAuditDetectsInjectedAccountingBug(t *testing.T) {
	bench := synth.MustBuild(synth.GCC())
	cfg := DefaultConfig()
	cfg.Policy = Resume
	cfg.MaxInsts = 20_000
	aud := newAuditor(cfg)
	cfg.Probe = aud
	res, err := Run(cfg, bench.Image(), bench.NewReader(1, cfg.MaxInsts*2), bpred.NewDefaultDecoupled())
	if err != nil {
		t.Fatal(err)
	}
	if err := aud.Verify(res.AuditFinal()); err != nil {
		t.Fatalf("clean run flagged: %v", err)
	}

	// A bus stall double-charged by one fetch group's worth of slots.
	bad := res.AuditFinal()
	bad.Lost[metrics.Bus] += metrics.Slots(cfg.FetchWidth)
	err = aud.Verify(bad)
	if err == nil {
		t.Error("double-charged bus stall verified clean")
	} else if !strings.Contains(err.Error(), "bus") {
		t.Errorf("diagnosis does not name the bus identity: %v", err)
	}

	// A dropped instruction.
	bad = res.AuditFinal()
	bad.Insts--
	if aud.Verify(bad) == nil {
		t.Error("dropped instruction count verified clean")
	}

	// Phantom memory traffic.
	bad = res.AuditFinal()
	bad.WrongPathFills++
	if aud.Verify(bad) == nil {
		t.Error("phantom wrong-path fill verified clean")
	}
}
