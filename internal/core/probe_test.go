package core

import (
	"math"
	"reflect"
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
)

// countingProbe cross-checks the probe event stream against the Result the
// same run reports.
type countingProbe struct {
	obs.NopProbe
	issued       int64
	stallSlots   metrics.Breakdown
	fills        [3]int64 // by obs.FillKind
	prefetches   int64
	missStarts   int64
	wpMissStarts int64
	busAcquires  int64
	busReleases  int64
	windowStarts int64
	windowEnds   int64
	redirects    int64
	resolves     int64
	mispredicts  int64
	samples      []obs.Snapshot
}

func (p *countingProbe) FetchCycle(cy Cycles, issued int) { p.issued += int64(issued) }
func (p *countingProbe) MissStart(cy Cycles, line uint64, wrongPath bool) {
	if wrongPath {
		p.wpMissStarts++
	} else {
		p.missStarts++
	}
}
func (p *countingProbe) FillComplete(cy Cycles, line uint64, kind obs.FillKind) { p.fills[kind]++ }
func (p *countingProbe) BusAcquire(cy Cycles, line uint64, kind obs.FillKind)   { p.busAcquires++ }
func (p *countingProbe) BusRelease(cy Cycles)                                   { p.busReleases++ }
func (p *countingProbe) BranchResolve(cy Cycles, pc uint64, taken, mispredicted bool) {
	p.resolves++
	if mispredicted {
		p.mispredicts++
	}
}
func (p *countingProbe) Redirect(cy Cycles, kind obs.RedirectKind, resumePC uint64) { p.redirects++ }
func (p *countingProbe) Prefetch(cy Cycles, line uint64, doneAt Cycles)             { p.prefetches++ }
func (p *countingProbe) WindowStart(cy Cycles, kind obs.RedirectKind, until Cycles) { p.windowStarts++ }
func (p *countingProbe) WindowEnd(cy Cycles)                                        { p.windowEnds++ }
func (p *countingProbe) Stall(cy, until Cycles, comp metrics.Component, slots Slots) {
	if until <= cy {
		panic("empty stall segment")
	}
	p.stallSlots.Add(comp, slots)
}
func (p *countingProbe) Sample(s obs.Snapshot) { p.samples = append(p.samples, s) }

// TestProbeEventInvariants runs every policy with a counting probe attached
// and checks the event stream is complete and consistent with the Result —
// and that attaching a probe does not perturb the simulation.
func TestProbeEventInvariants(t *testing.T) {
	bench := synth.MustBuild(synth.GCC())
	const insts = 100_000
	for _, pol := range Policies() {
		for _, pref := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Policy = pol
			cfg.NextLinePrefetch = pref
			cfg.MaxInsts = insts

			base, err := Run(cfg, bench.Image(), bench.NewReader(1, insts*2), bpred.NewDefaultDecoupled())
			if err != nil {
				t.Fatalf("%v pref=%v: %v", pol, pref, err)
			}

			p := &countingProbe{}
			cfg.Probe = p
			cfg.SampleInterval = 10_000
			res, err := Run(cfg, bench.Image(), bench.NewReader(1, insts*2), bpred.NewDefaultDecoupled())
			if err != nil {
				t.Fatalf("%v pref=%v probed: %v", pol, pref, err)
			}

			if !reflect.DeepEqual(res, base) {
				t.Errorf("%v pref=%v: probe changed the result:\nprobed %+v\n  base %+v", pol, pref, res, base)
			}
			if p.issued != res.Insts {
				t.Errorf("%v pref=%v: FetchCycle issued sum = %d, want %d", pol, pref, p.issued, res.Insts)
			}
			// Every lost slot outside the Branch window component must be
			// covered by exactly-once Stall events.
			for _, c := range metrics.Components() {
				if c == metrics.Branch {
					continue
				}
				if p.stallSlots[c] != res.Lost[c] {
					t.Errorf("%v pref=%v: stall slots for %s = %d, want %d",
						pol, pref, c, p.stallSlots[c], res.Lost[c])
				}
			}
			if got, want := uint64(p.fills[obs.FillDemand]), res.Traffic.DemandFills; got != want {
				t.Errorf("%v pref=%v: demand fill events = %d, want %d", pol, pref, got, want)
			}
			if got, want := uint64(p.fills[obs.FillWrongPath]), res.Traffic.WrongPathFills; got != want {
				t.Errorf("%v pref=%v: wrong-path fill events = %d, want %d", pol, pref, got, want)
			}
			if got, want := uint64(p.fills[obs.FillPrefetch]), res.Traffic.PrefetchFills; got != want {
				t.Errorf("%v pref=%v: prefetch fill events = %d, want %d", pol, pref, got, want)
			}
			if got, want := uint64(p.prefetches), res.Traffic.PrefetchFills; got != want {
				t.Errorf("%v pref=%v: prefetch events = %d, want %d", pol, pref, got, want)
			}
			if got, want := uint64(p.busAcquires), res.Traffic.Total(); got != want {
				t.Errorf("%v pref=%v: bus acquires = %d, want %d transfers", pol, pref, got, want)
			}
			if p.busAcquires != p.busReleases {
				t.Errorf("%v pref=%v: %d acquires vs %d releases", pol, pref, p.busAcquires, p.busReleases)
			}
			windows := res.Events.PHTMispredicts + res.Events.BTBMisfetches + res.Events.BTBMispredicts
			if p.windowStarts != windows || p.windowEnds != windows || p.redirects != windows {
				t.Errorf("%v pref=%v: window start/end/redirect = %d/%d/%d, want %d each",
					pol, pref, p.windowStarts, p.windowEnds, p.redirects, windows)
			}
			// Both structural and line-re-entry misses reach the miss
			// handler, so the event count covers their sum.
			if want := res.RightPathMisses + res.ReentryMisses; p.missStarts != want {
				t.Errorf("%v pref=%v: right-path miss events = %d, want %d",
					pol, pref, p.missStarts, want)
			}
			if p.mispredicts < res.Events.PHTMispredicts {
				t.Errorf("%v pref=%v: mispredict resolves = %d, below PHT mispredicts %d",
					pol, pref, p.mispredicts, res.Events.PHTMispredicts)
			}

			// Sampler contract: monotone samples ending in the exact final
			// counters, so the last cumulative ISPI equals the Result's.
			if len(p.samples) == 0 {
				t.Fatalf("%v pref=%v: no samples", pol, pref)
			}
			for i := 1; i < len(p.samples); i++ {
				if p.samples[i].Insts < p.samples[i-1].Insts || p.samples[i].Cycle < p.samples[i-1].Cycle {
					t.Errorf("%v pref=%v: non-monotone samples %d: %+v -> %+v",
						pol, pref, i, p.samples[i-1], p.samples[i])
				}
			}
			last := p.samples[len(p.samples)-1]
			if last.Insts != res.Insts || last.Cycle != res.Cycles || last.Lost != res.Lost {
				t.Errorf("%v pref=%v: final sample %+v does not match result (insts %d cycles %d)",
					pol, pref, last, res.Insts, res.Cycles)
			}
			if got, want := last.Lost.TotalISPI(last.Insts), res.TotalISPI(); math.Abs(got-want) > 1e-9 {
				t.Errorf("%v pref=%v: final sample ISPI = %v, want %v", pol, pref, got, want)
			}
		}
	}
}

// TestSamplerCadence checks the engine samples at every interval boundary.
func TestSamplerCadence(t *testing.T) {
	bench := synth.MustBuild(synth.Groff())
	const insts, interval = 50_000, 5_000
	p := &countingProbe{}
	cfg := DefaultConfig()
	cfg.Policy = Resume
	cfg.MaxInsts = insts
	cfg.Probe = p
	cfg.SampleInterval = interval
	if _, err := Run(cfg, bench.Image(), bench.NewReader(1, insts*2), bpred.NewDefaultDecoupled()); err != nil {
		t.Fatal(err)
	}
	// At least one sample per full interval plus the run-end sample; group
	// issue can overshoot a boundary by at most one group, so the count is
	// bounded tightly.
	minSamples := int64(insts / interval)
	if n := len(p.samples); int64(n) < minSamples || int64(n) > minSamples+2 {
		t.Errorf("samples = %d, want within [%d, %d]", n, minSamples, minSamples+2)
	}
	for i := 1; i < len(p.samples)-1; i++ {
		if d := p.samples[i].Insts - p.samples[i-1].Insts; d < interval-int64(cfg.FetchWidth) || d > interval+int64(cfg.FetchWidth) {
			t.Errorf("sample %d spacing = %d insts, want ~%d", i, d, interval)
		}
	}
}

// TestNegativeSampleIntervalRejected covers config validation of the new
// field.
func TestNegativeSampleIntervalRejected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampleInterval = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative SampleInterval accepted")
	}
}
