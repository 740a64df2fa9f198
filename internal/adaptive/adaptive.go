// Package adaptive implements the chooser strategies behind the core
// Adaptive meta-policy: online algorithms that watch the engine's own
// per-window counters (core.AdaptWindow) and re-select one of the paper's
// five static fetch policies at every window boundary, chasing the offline
// oracle-selector bound (internal/experiments, DESIGN.md §15) with runtime
// information only.
//
// Two strategies ship: the flush-phase chooser (phase.go), the only one
// that has ever beaten the best static policy on the chooser scoreboard
// (EXPERIMENTS.md), and the constant pinned chooser, the differential
// anchor. Both are deterministic state machines with no randomness, no
// clocks and no map iteration, so a strategy's switch sequence — and
// therefore the whole run — is bit-identical across step modes, pool
// worker counts, and remote worker processes.
package adaptive

import (
	"fmt"
	"strings"

	"specfetch/internal/core"
)

// PinnedPrefix introduces the degenerate constant-choice strategy:
// "pinned:<policy>" always answers that policy. It exists for the
// differential anchor — an adaptive run pinned to a static policy must be
// bit-identical to the static run — and as the simplest possible chooser.
const PinnedPrefix = "pinned:"

// Names lists the recognized strategy names, in the order New's error
// message reports them.
func Names() []string {
	return []string{"phase:<period>", PinnedPrefix + "<policy>"}
}

// New constructs a chooser by name. No strategy reads the seed; the
// parameter stays only because perfbench compiles against this signature,
// and goes with the next benchmark change.
func New(name string, seed uint64) (core.Chooser, error) {
	if pol, ok := strings.CutPrefix(name, PinnedPrefix); ok {
		p, err := core.ParsePolicy(pol)
		if err != nil {
			return nil, fmt.Errorf("adaptive: %s: %w", name, err)
		}
		if !p.IsStatic() {
			return nil, fmt.Errorf("adaptive: cannot pin the %v meta-policy to itself", p)
		}
		return Pinned(p), nil
	}
	if ch, ok, err := parsePhase(name); ok {
		return ch, err
	}
	return nil, fmt.Errorf("adaptive: unknown strategy %q (valid: %s)",
		name, strings.Join(Names(), ", "))
}

// Pinned is the constant-choice strategy: every window runs the same static
// policy, so an Adaptive run degenerates to the static run it pins.
type Pinned core.Policy

// First returns the pinned policy.
func (p Pinned) First() core.Policy { return core.Policy(p) }

// Decide returns the pinned policy, ignoring the window.
func (p Pinned) Decide(core.AdaptWindow) core.Policy { return core.Policy(p) }
