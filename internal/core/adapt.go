package core

import "specfetch/internal/obs"

// The Adaptive meta-policy's decision plane. The engine slices an adaptive
// run into fixed instruction-count windows (Config.AdaptInterval wide) and,
// at every boundary, hands the window's counter deltas to a Chooser, which
// answers with the static policy to run next. The digest deliberately
// exposes only information a real machine has at runtime — its own lost
// slots, miss counts, and bus occupancy — never oracle knowledge; the
// oracle selector (internal/experiments) stays the unreachable bound the
// chooser is measured against.
//
// Decision boundaries are points of the engine's single boundary schedule,
// which also drives the sampler grid (Config.SampleInterval), and each
// digest is an obs.WindowRecord cut by obs.Snapshot.Since — the function
// that cuts obs.WindowSeries windows. Adaptive windows therefore align with
// oracle windows by construction at equal widths. A decision takes effect
// immediately: the instruction that crossed the boundary has issued, and
// every subsequent miss (correct- or wrong-path) is handled under the new
// policy. In the skip-ahead core a boundary can fall inside a bulk-issued
// region of plain cache-resident instructions; no miss handling happens
// there, so the engine interpolates the boundary snapshot (only cycle,
// instruction, and access counts move inside such a region) and installs
// the pick at the end of the region — the chooser sees bit-identical inputs
// in both step modes, which the differential suite verifies. The run-end
// remainder after the last boundary is never a decision window.

// AdaptWindow is one decision window's digest: counter deltas over the last
// AdaptInterval correct-path instructions, plus which policy was active
// while they were accumulated.
type AdaptWindow struct {
	obs.WindowRecord
	// Active is the static policy that produced these numbers.
	Active Policy
}

// LostPerInst returns the window's issue slots lost per instruction — the
// per-window ISPI the choosers rank policies by.
func (w AdaptWindow) LostPerInst() float64 { return w.ISPI() }

// Chooser is the pluggable selection strategy behind the Adaptive policy.
// Implementations live in internal/adaptive (core defines only the
// interface, so the dependency arrow stays adaptive → core).
//
// A Chooser must be deterministic — same seed, same window sequence, same
// decisions — and must not consult wall clocks or global randomness
// (internal/xrand is the sanctioned generator). Both First and Decide must
// return static policies (Policy.IsStatic); the engine treats anything else
// as a programming error.
type Chooser interface {
	// First returns the policy to start the run under, before any window
	// has completed.
	First() Policy
	// Decide consumes one completed window and returns the policy for the
	// next window (possibly the same one). It is called exactly once per
	// boundary, in window order.
	Decide(w AdaptWindow) Policy
}
