package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
)

// adaptiveOpt is the small pinned configuration the identity arms share.
func adaptiveOpt() Options {
	return Options{Insts: 60_000, Benchmarks: []string{"gcc", "groff"}}
}

// The identity suites run a chooser that really switches: phase:3 at
// 1000-instruction windows leaves its 48-window warm-up early enough to
// switch several times per adaptiveOpt cell.
const (
	switchingStrategy = "phase:3"
	switchingInterval = 1_000
)

// renderAdaptive runs the switching study and flattens its rendered
// artifacts into one byte string for identity comparison. A row that never
// switched fails the test, so the identity cannot pass vacuously.
func renderAdaptive(t *testing.T, opt Options) string {
	t.Helper()
	d, err := AdaptiveStudyData(opt, switchingStrategy, 0, switchingInterval, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range d.Rows {
		if r.Switches == 0 {
			t.Fatalf("%s@%dc: %s never switched", r.Bench, r.Penalty, switchingStrategy)
		}
	}
	var b bytes.Buffer
	if err := d.CrossoverTable().Render(&b); err != nil {
		t.Fatal(err)
	}
	b.WriteString(d.WinnerMap())
	return b.String()
}

// TestAdaptiveBytesIdenticalAcrossWorkers: the study renders the same
// bytes serially, on a 4-worker pool, and dispatched to a spawned 2-worker
// fleet. The chooser never crosses the wire; each worker rebuilds it from
// the strategy name, and this is the proof that reconstruction is exact.
func TestAdaptiveBytesIdenticalAcrossWorkers(t *testing.T) {
	serial := adaptiveOpt()
	serial.Workers = 1
	want := renderAdaptive(t, serial)

	pooled := adaptiveOpt()
	pooled.Workers = 4
	if got := renderAdaptive(t, pooled); got != want {
		t.Error("4-worker pool renders the adaptive study differently from serial")
	}

	remote := adaptiveOpt()
	remote.Dispatch = distsweep.New(distsweep.CoordinatorOptions{
		Workers:   startWorkers(t, 2),
		BatchSize: 4,
	})
	if got := renderAdaptive(t, remote); got != want {
		t.Error("remote fleet renders the adaptive study differently from serial")
	}
}

// TestAdaptiveOracleArmExact: the study's oracle arm, run in one
// work-list with the adaptive cells, is exactly the study
// OracleSelectorData runs on its own at the same settings, serially and
// on a 4-worker pool.
func TestAdaptiveOracleArmExact(t *testing.T) {
	for _, workers := range []int{1, 4} {
		opt := adaptiveOpt()
		opt.Workers = workers
		opt.FlushInterval = 15_000
		want, err := OracleSelectorData(opt, switchingInterval, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := AdaptiveStudyData(opt, switchingStrategy, 0, switchingInterval, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d.Oracle, want) {
			t.Errorf("workers=%d: the adaptive study's oracle arm differs from OracleSelectorData", workers)
		}
	}
}

// TestAdaptiveStepModeIdentity: the study renders identical bytes under
// the reference stepper and the skip-ahead core, with the cache kept warm
// and flushed every 15000 instructions, and every row switches in both.
// The chooser sits in the engine's decision loop, so this is the
// experiments-level face of the core adapt-window digest identity.
func TestAdaptiveStepModeIdentity(t *testing.T) {
	for _, flush := range []int64{0, 15_000} {
		fast := adaptiveOpt()
		fast.Workers = 1
		fast.FlushInterval = flush
		fast.StepMode = core.StepSkipAhead
		ref := fast
		ref.StepMode = core.StepReference
		if renderAdaptive(t, fast) != renderAdaptive(t, ref) {
			t.Errorf("flush interval %d: step modes render the adaptive study differently", flush)
		}
	}
}

// TestAdaptivePinnedMatchesStatic: the degenerate pinned strategy must
// score exactly the static policy it pins — same windows, same totals —
// with zero switches. This anchors the whole study: whatever a real
// strategy reports, the measurement machinery adds nothing.
func TestAdaptivePinnedMatchesStatic(t *testing.T) {
	opt := adaptiveOpt()
	opt.Workers = 1
	opt.FlushInterval = 15_000 // the pinning must hold under flushes too
	d, err := AdaptiveStudyData(opt, "pinned:resume", 0, oracleTestInterval, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range d.Rows {
		if r.Switches != 0 {
			t.Errorf("row %d (%s@%dc): pinned chooser switched %d times", i, r.Bench, r.Penalty, r.Switches)
		}
		if want := d.Oracle.Rows[i].StaticISPI(core.Resume); r.ISPI != want {
			t.Errorf("row %d (%s@%dc): pinned adaptive ISPI %v, static resume %v",
				i, r.Bench, r.Penalty, r.ISPI, want)
		}
	}
}

// TestAdaptiveStudyRejectsUnknownStrategy: a bad strategy name fails
// before any simulation runs.
func TestAdaptiveStudyRejectsUnknownStrategy(t *testing.T) {
	if _, err := AdaptiveStudyData(adaptiveOpt(), "bogus", 0, oracleTestInterval, nil); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

// TestAdaptiveCapturesHeadroomAtPinnedCell is the headline acceptance run:
// on the shipped study geometry — porky, 20-cycle miss penalty, the cache
// flushed every 15000 instructions, 2500-instruction decision windows, the
// phase:6 strategy, 20M instructions — the online chooser must strictly
// beat the best static policy and report a nonzero share of the oracle
// selector's headroom. This is the cell where adaptation pays for itself;
// the full 13-benchmark sweep (README table) shows it is also the honest
// boundary: where one static policy dominates every phase, adaptation's
// probe overhead loses by design.
func TestAdaptiveCapturesHeadroomAtPinnedCell(t *testing.T) {
	if raceEnabled {
		t.Skip("20M-instruction cells; numerical coverage is identical without the race detector")
	}
	if testing.Short() {
		t.Skip("20M-instruction cells")
	}
	opt := Options{
		Insts:         20_000_000,
		Benchmarks:    []string{"porky"},
		FlushInterval: 15_000,
	}
	d, err := AdaptiveStudyData(opt, "phase:6", 0, 2_500, []int{20})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(d.Rows))
	}
	if _, best := d.Oracle.Rows[0].BestStatic(); d.Rows[0].ISPI >= best {
		t.Fatalf("adaptive ISPI %.4f did not beat the best static %.4f at the pinned cell",
			d.Rows[0].ISPI, best)
	}
	capture, ok := d.Capture(0)
	if !ok || capture <= 0 {
		t.Fatalf("headroom capture = %.2f%% (defined=%v), want positive", capture, ok)
	}
	t.Logf("porky@20c: adaptive %.4f, capture %.1f%%, %d switches",
		d.Rows[0].ISPI, capture, d.Rows[0].Switches)
}
