package adaptive

import (
	"reflect"
	"strings"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/metrics"
)

// win fabricates a window digest: 1000 instructions with the given
// lost-per-inst cost, attributed to the given active policy.
func win(active core.Policy, lpi float64) core.AdaptWindow {
	w := core.AdaptWindow{Active: active}
	w.EndInsts, w.EndCycle = 1000, 2000
	w.Lost[metrics.RTICache] = int64(lpi * 1000)
	return w
}

// drive feeds a chooser a fixed cost model — each policy has a constant
// lost-per-inst — for n windows and returns the policy sequence it chose
// (starting with First).
func drive(c core.Chooser, cost map[core.Policy]float64, n int) []core.Policy {
	seq := make([]core.Policy, 0, n+1)
	cur := c.First()
	seq = append(seq, cur)
	for i := 0; i < n; i++ {
		cur = c.Decide(win(cur, cost[cur]))
		seq = append(seq, cur)
	}
	return seq
}

// flatCost charges every policy the same baseline except for one cheap
// winner.
func flatCost(winner core.Policy, base, best float64) map[core.Policy]float64 {
	m := make(map[core.Policy]float64, len(core.Policies()))
	for _, p := range core.Policies() {
		m[p] = base
	}
	m[winner] = best
	return m
}

func TestNewNamesAndErrors(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"tournament", "ucb", "egreedy"} {
		c, err := New(name, 1)
		if err != nil || c == nil {
			t.Errorf("New(%q): %v", name, err)
		}
	}
	c, err := New("pinned:resume", 0)
	if err != nil {
		t.Fatalf("pinned:resume: %v", err)
	}
	if got := c.First(); got != core.Resume {
		t.Errorf("pinned:resume First() = %v", got)
	}
	if got := c.Decide(win(core.Resume, 1)); got != core.Resume {
		t.Errorf("pinned:resume Decide() = %v", got)
	}

	for _, bad := range []string{"oracle", "bandit", ""} {
		if _, err := New(bad, 0); err == nil {
			t.Errorf("New(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "tournament") {
			t.Errorf("New(%q) error %q does not list valid names", bad, err)
		}
	}
	if _, err := New("pinned:adaptive", 0); err == nil {
		t.Errorf("pinning the meta-policy to itself was accepted")
	}
	if _, err := New("pinned:bogus", 0); err == nil {
		t.Errorf("pinned:bogus accepted")
	}
}

// TestTournamentCommitsToWinner: after one trial window per arm the
// tournament must settle on the cheapest policy and stay there while its
// cost is stable.
func TestTournamentCommitsToWinner(t *testing.T) {
	t.Parallel()
	for _, winner := range core.Policies() {
		cost := flatCost(winner, 2.0, 0.5)
		seq := drive(NewTournament(), cost, 20)
		arms := core.Policies()
		// Trial phase: one window per arm, in order.
		for i, a := range arms {
			if seq[i] != a {
				t.Fatalf("winner %v: trial window %d ran %v, want %v", winner, i, seq[i], a)
			}
		}
		// Committed phase: the winner, forever (cost is stable).
		for i := len(arms); i < len(seq); i++ {
			if seq[i] != winner {
				t.Fatalf("winner %v: committed window %d chose %v", winner, i, seq[i])
			}
		}
	}
}

// TestTournamentReopensOnDrift: once the committed policy's cost drifts far
// above its baseline, the tournament must re-trial from arm 0.
func TestTournamentReopensOnDrift(t *testing.T) {
	t.Parallel()
	tour := NewTournament()
	cost := flatCost(core.Resume, 2.0, 0.5)
	cur := tour.First()
	for i := 0; i < 8; i++ { // trial round + settle
		cur = tour.Decide(win(cur, cost[cur]))
	}
	if cur != core.Resume {
		t.Fatalf("settled on %v, want resume", cur)
	}
	// Phase change: the committed policy suddenly costs 4x baseline.
	cur = tour.Decide(win(cur, 2.0))
	if cur != core.Policies()[0] {
		t.Fatalf("after drift got %v, want re-trial from %v", cur, core.Policies()[0])
	}
}

// TestUCBPlaysEveryArmOnce: the bandit's opening round covers all arms in
// order before any exploitation.
func TestUCBPlaysEveryArmOnce(t *testing.T) {
	t.Parallel()
	cost := flatCost(core.Decode, 1.0, 0.1)
	seq := drive(NewUCB(), cost, 30)
	for i, a := range core.Policies() {
		if seq[i] != a {
			t.Fatalf("opening pull %d was %v, want %v", i, seq[i], a)
		}
	}
	// With a clear winner and a modest horizon, the plurality choice after
	// the opening round must be the cheap arm.
	counts := map[core.Policy]int{}
	for _, p := range seq[len(core.Policies()):] {
		counts[p]++
	}
	for _, p := range core.Policies() {
		if p != core.Decode && counts[p] > counts[core.Decode] {
			t.Fatalf("UCB favoured %v (%d) over the cheap arm (%d)", p, counts[p], counts[core.Decode])
		}
	}
}

// TestDeterminismSameSeed: every strategy, driven over the same window
// stream, must produce an identical decision sequence when rebuilt with the
// same seed — the property the engine-level bit-identity rests on.
func TestDeterminismSameSeed(t *testing.T) {
	t.Parallel()
	cost := flatCost(core.Optimistic, 1.5, 0.3)
	for _, name := range []string{"tournament", "ucb", "egreedy", "pinned:decode"} {
		a, _ := New(name, 0xada9)
		b, _ := New(name, 0xada9)
		if !reflect.DeepEqual(drive(a, cost, 200), drive(b, cost, 200)) {
			t.Errorf("%s: same seed diverged", name)
		}
	}
}

// TestEgreedySeedDivergence documents the legitimate divergence: different
// seeds give the epsilon-greedy bandit different exploration streams, so
// the decision sequences differ (while each remains reproducible).
func TestEgreedySeedDivergence(t *testing.T) {
	t.Parallel()
	cost := flatCost(core.Optimistic, 1.5, 0.3)
	a := drive(NewEpsilonGreedy(1), cost, 400)
	b := drive(NewEpsilonGreedy(2), cost, 400)
	if reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 produced identical egreedy sequences over 400 windows")
	}
}

// TestAllStrategiesReturnStatic: no strategy may ever answer a non-static
// policy, under any cost stream (here: adversarially spiky).
func TestAllStrategiesReturnStatic(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"tournament", "ucb", "egreedy"} {
		c, _ := New(name, 7)
		cur := c.First()
		for i := 0; i < 500; i++ {
			lpi := float64(i%13) * 0.7 // spiky, repeatedly crossing drift thresholds
			cur = c.Decide(win(cur, lpi))
			if !cur.IsStatic() {
				t.Fatalf("%s: window %d returned non-static %v", name, i, cur)
			}
		}
	}
}

// FuzzAdaptiveNew feeds arbitrary strategy names, which arrive from the wire
// and the command line, to New: each must yield an error or a chooser that
// starts on a static policy, and never a panic.
func FuzzAdaptiveNew(f *testing.F) {
	for _, name := range Names() {
		f.Add(name, uint64(0))
	}
	for _, name := range []string{"phase", "phase:6", "phase:65536", "phase:65537",
		"phase:4611686018427387904", "phase:-1", "phase:99999999999999999999",
		"pinned:resume", "pinned:adaptive", "egreedy", ""} {
		f.Add(name, uint64(7))
	}
	f.Fuzz(func(t *testing.T, name string, seed uint64) {
		c, err := New(name, seed)
		if err != nil {
			if c != nil {
				t.Fatalf("New(%q) returned both a chooser and %v", name, err)
			}
			return
		}
		if c == nil {
			t.Fatalf("New(%q) returned neither a chooser nor an error", name)
		}
		if p := c.First(); !p.IsStatic() {
			t.Fatalf("New(%q).First() = %v, not a static policy", name, p)
		}
	})
}
