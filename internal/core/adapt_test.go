package core

import (
	"reflect"
	"strings"
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// The adaptive differential suite. The meta-policy's boundary hook has two
// implementations — per-issued-instruction in the reference stepper, and
// interpolated inside bulk plain-issue regions in the skip-ahead core — and
// these tests hold them to bit-identity: equal Results, equal probe event
// streams, and (the strongest form) equal AdaptWindow digest sequences as
// observed by the chooser itself. Chooser strategies live in
// internal/adaptive (which imports this package), so the choosers here are
// test-local.

// pinnedChooser always answers one static policy — the differential anchor:
// an Adaptive run pinned to a policy must equal the static run exactly.
type pinnedChooser Policy

func (p pinnedChooser) First() Policy             { return Policy(p) }
func (p pinnedChooser) Decide(AdaptWindow) Policy { return Policy(p) }

// rotateChooser cycles deterministically through the static policies, one
// per window, guaranteeing switches land inside bulk regions.
type rotateChooser struct{ idx int }

func (r *rotateChooser) First() Policy { return Policies()[0] }
func (r *rotateChooser) Decide(AdaptWindow) Policy {
	r.idx++
	return Policies()[r.idx%len(Policies())]
}

// recordingChooser wraps another chooser and keeps every digest it was
// shown, so two runs can be compared window by window.
type recordingChooser struct {
	inner   Chooser
	windows []AdaptWindow
}

func (r *recordingChooser) First() Policy { return r.inner.First() }
func (r *recordingChooser) Decide(w AdaptWindow) Policy {
	r.windows = append(r.windows, w)
	return r.inner.Decide(w)
}

// TestAdaptivePinnedBitIdentity: for every static policy and both paper miss
// penalties, an Adaptive run with a pinned chooser must be bit-identical to
// the corresponding static run — Results (normalized on the Policy echo) and
// full probe event streams — in both step modes.
func TestAdaptivePinnedBitIdentity(t *testing.T) {
	t.Parallel()
	bench := synth.MustBuild(synth.GCC())
	for _, mode := range []StepMode{StepSkipAhead, StepReference} {
		for _, pen := range []int{5, 20} {
			for _, pol := range Policies() {
				static := DefaultConfig()
				static.Policy = pol
				static.MissPenalty = pen
				adapt := static
				adapt.Policy = Adaptive
				adapt.AdaptInterval = 1_000
				adapt.Chooser = pinnedChooser(pol)

				sres, sevs := runDiffMode(t, static, bench, 99, mode, nil, true, 3)
				ares, aevs := runDiffMode(t, adapt, bench, 99, mode, nil, true, 3)
				if ares.Policy != Adaptive {
					t.Fatalf("adaptive result echoes %v, want Adaptive", ares.Policy)
				}
				if ares.PolicySwitches != 0 {
					t.Errorf("pinned chooser switched %d times, want 0", ares.PolicySwitches)
				}
				ares.Policy = sres.Policy // the echo is the one legitimate difference
				if !reflect.DeepEqual(sres, ares) {
					t.Errorf("mode %v policy %v pen %d: pinned adaptive differs from static\nstatic:   %+v\nadaptive: %+v",
						mode, pol, pen, sres, ares)
				}
				if !reflect.DeepEqual(sevs, aevs) {
					t.Errorf("mode %v policy %v pen %d: event streams differ (static %d events, adaptive %d)",
						mode, pol, pen, len(sevs), len(aevs))
				}
			}
		}
	}
}

// adaptDiffRun executes one adaptive cell with a fresh recording chooser and
// returns the Result plus the digest sequence the chooser saw.
func adaptDiffRun(t *testing.T, cfg Config, bench *synth.Bench, seed uint64,
	mode StepMode, inner Chooser, record bool) (Result, []AdaptWindow) {
	t.Helper()
	rec := &recordingChooser{inner: inner}
	cfg.Chooser = rec
	res, _ := runDiffMode(t, cfg, bench, seed, mode, nil, record, 1)
	return res, rec.windows
}

// TestAdaptiveWindowDigestIdentity is the heart of the suite: a rotating
// chooser forces a policy switch every window, and the digests handed to the
// chooser — cycle spans interpolated mid-bulk-region in the skip-ahead core —
// must match the reference stepper's field for field, along with the final
// Results. Probe-less first (bulk fast path live), then with a full event
// recorder and a sampler co-prime to the adapt interval.
func TestAdaptiveWindowDigestIdentity(t *testing.T) {
	t.Parallel()
	for _, p := range []synth.Profile{synth.GCC(), synth.Su2cor(), synth.Fpppp()} {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			bench := synth.MustBuild(p)
			for _, pen := range []int{5, 20} {
				cfg := DefaultConfig()
				cfg.Policy = Adaptive
				cfg.AdaptInterval = 512 // off the sampler grid, lands mid-bulk
				cfg.MissPenalty = pen

				ref, refWs := adaptDiffRun(t, cfg, bench, p.Seed, StepReference, &rotateChooser{}, false)
				fast, fastWs := adaptDiffRun(t, cfg, bench, p.Seed, StepSkipAhead, &rotateChooser{}, false)
				if ref.PolicySwitches == 0 {
					t.Fatalf("pen %d: rotating chooser recorded no switches; boundaries never fired", pen)
				}
				if len(refWs) < 10 {
					t.Fatalf("pen %d: only %d windows observed; adapt interval not exercised", pen, len(refWs))
				}
				if !reflect.DeepEqual(ref, fast) {
					t.Errorf("pen %d: Results differ\nreference: %+v\nskipahead: %+v", pen, ref, fast)
				}
				if !reflect.DeepEqual(refWs, fastWs) {
					for i := range refWs {
						if i >= len(fastWs) || !reflect.DeepEqual(refWs[i], fastWs[i]) {
							t.Errorf("pen %d: window digest %d differs\nreference: %+v\nskipahead: %+v",
								pen, i, refWs[i], fastWs[i])
							break
						}
					}
					if len(refWs) != len(fastWs) {
						t.Errorf("pen %d: window count differs: reference %d, skipahead %d",
							pen, len(refWs), len(fastWs))
					}
				}

				// Probed arm: stepped outer loop, sampler at 700 interleaving
				// with adapt boundaries at 512.
				cfg.SampleInterval = 700
				pref, prefWs := adaptDiffRun(t, cfg, bench, p.Seed, StepReference, &rotateChooser{}, true)
				pfast, pfastWs := adaptDiffRun(t, cfg, bench, p.Seed, StepSkipAhead, &rotateChooser{}, true)
				if !reflect.DeepEqual(pref, pfast) {
					t.Errorf("pen %d probed: Results differ\nreference: %+v\nskipahead: %+v", pen, pref, pfast)
				}
				if !reflect.DeepEqual(prefWs, pfastWs) {
					t.Errorf("pen %d probed: window digests differ", pen)
				}
				// Attaching a probe must not change what the chooser sees.
				if !reflect.DeepEqual(refWs, prefWs) {
					t.Errorf("pen %d: probe attachment changed the digest stream", pen)
				}
			}
		})
	}
}

// TestAdaptiveConfigErrors covers the validation surface added with the
// meta-policy.
func TestAdaptiveConfigErrors(t *testing.T) {
	t.Parallel()
	base := DefaultConfig()

	cfg := base
	cfg.Policy = Adaptive
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "adapt interval") {
		t.Errorf("adaptive without interval: got %v, want adapt-interval error", err)
	}
	cfg.AdaptInterval = -1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "negative adapt interval") {
		t.Errorf("negative interval: got %v", err)
	}
	cfg = base
	cfg.Chooser = pinnedChooser(Oracle)
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "non-adaptive") {
		t.Errorf("chooser on static policy: got %v", err)
	}

	// NewEngine: adaptive without a chooser, and a chooser whose First() is
	// not static.
	bench := synth.MustBuild(synth.Su2cor())
	newEng := func(c Config) error {
		pred, _ := bpred.ByName("")
		rd := trace.NewLimitReader(bench.NewWalker(1), 1000)
		_, err := NewEngine(c, bench.Image(), rd, pred())
		return err
	}
	cfg = base
	cfg.Policy = Adaptive
	cfg.AdaptInterval = 100
	if err := newEng(cfg); err == nil || !strings.Contains(err.Error(), "Chooser") {
		t.Errorf("adaptive without chooser: got %v", err)
	}
	cfg.Chooser = pinnedChooser(Adaptive)
	if err := newEng(cfg); err == nil || !strings.Contains(err.Error(), "non-static") {
		t.Errorf("non-static First(): got %v", err)
	}
}

// TestAdaptiveDecideNonStaticPanics: a chooser returning the meta-policy
// from Decide is a programming error the engine refuses to mask.
func TestAdaptiveDecideNonStaticPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if r := recover(); r == nil {
			t.Fatalf("Decide returning Adaptive did not panic")
		}
	}()
	bench := synth.MustBuild(synth.Su2cor())
	cfg := DefaultConfig()
	cfg.Policy = Adaptive
	cfg.AdaptInterval = 50
	cfg.MaxInsts = 5_000
	cfg.Chooser = badDecide{}
	pred, _ := bpred.ByName("")
	rd := trace.NewLimitReader(bench.NewWalker(1), 6_000)
	_, _ = Run(cfg, bench.Image(), rd, pred())
}

type badDecide struct{}

func (badDecide) First() Policy             { return Oracle }
func (badDecide) Decide(AdaptWindow) Policy { return Adaptive }

// TestParsePolicyAdaptive extends the name round-trip to the new member and
// pins the contract that chooser strategy names are not policies: they must
// be rejected with an error that lists the valid policy names.
func TestParsePolicyAdaptive(t *testing.T) {
	t.Parallel()
	for p := Policy(0); p < numPolicies; p++ {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: got %v, %v", p, got, err)
		}
	}
	if p, err := ParsePolicy("adaptive"); err != nil || p != Adaptive {
		t.Errorf(`ParsePolicy("adaptive") = %v, %v; want Adaptive`, p, err)
	}
	if Adaptive.IsStatic() {
		t.Errorf("Adaptive.IsStatic() = true")
	}
	for _, pol := range Policies() {
		if !pol.IsStatic() {
			t.Errorf("%v.IsStatic() = false", pol)
		}
	}
	for _, bad := range []string{"tournament", "ucb", "egreedy", "pinned:oracle"} {
		_, err := ParsePolicy(bad)
		if err == nil {
			t.Errorf("ParsePolicy(%q) accepted a strategy name", bad)
			continue
		}
		for _, want := range []string{"valid:", "oracle", "adaptive"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParsePolicy(%q) error %q does not mention %q", bad, err, want)
			}
		}
	}
}

// TestAdaptWindowsAreSeriesWindows: decision windows and stored windows are
// cut by one boundary schedule and one differencing function, so at equal
// widths every digest the chooser sees is the window series' record of the
// same span, field for field. The one exception is the run-end window: the
// series folds the trailing cycles after the last boundary into it, while
// the chooser only ever sees the boundary delta.
func TestAdaptWindowsAreSeriesWindows(t *testing.T) {
	t.Parallel()
	for _, p := range []synth.Profile{synth.GCC(), synth.Porky()} {
		bench := synth.MustBuild(p)
		for _, width := range []int64{512, 2500} {
			for _, mode := range []StepMode{StepReference, StepSkipAhead} {
				cfg := DefaultConfig()
				cfg.Policy = Adaptive
				cfg.AdaptInterval = width
				cfg.SampleInterval = width
				cfg.FlushInterval = 15_000
				rec := &recordingChooser{inner: &rotateChooser{}}
				cfg.Chooser = rec
				win := obs.NewWindowSeries()
				res := runSampled(t, cfg, bench, p.Seed, mode, win, 40_000)

				recs := win.Records()
				if n := res.Insts / width; len(rec.windows) != int(n) {
					t.Fatalf("%s/%d/%v: %d decisions, want %d", p.Name, width, mode, len(rec.windows), n)
				}
				for i, w := range rec.windows {
					r := recs[i]
					if i == len(recs)-1 {
						// The run-end merge may extend the last window in time.
						r.EndCycle, r.Lost, r.BusTransfers, r.BusBusy = w.EndCycle, w.Lost, w.BusTransfers, w.BusBusy
					}
					if w.WindowRecord != r {
						t.Fatalf("%s/%d/%v: digest %d differs from the series window\ndigest: %+v\nwindow: %+v",
							p.Name, width, mode, i, w.WindowRecord, recs[i])
					}
				}
			}
		}
	}
}
