package adaptive

import (
	"reflect"
	"strings"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/metrics"
)

// win fabricates an indexed window digest: windows of 1000 instructions,
// attributed to the given active policy at the given lost-per-inst cost.
func win(idx int64, active core.Policy, lpi float64) core.AdaptWindow {
	w := core.AdaptWindow{Active: active}
	w.Index = int(idx)
	w.StartInsts, w.EndInsts = idx*1000, (idx+1)*1000
	w.StartCycle, w.EndCycle = idx*2000, (idx+1)*2000
	w.Lost[metrics.RTICache] = int64(lpi * 1000)
	return w
}

// drive feeds a chooser n windows, each charged the cost the model gives
// its index and active policy, and returns the policy chosen for each
// window index (entry i ran window i).
func drive(c core.Chooser, cost func(idx int64, pol core.Policy) float64, n int64) []core.Policy {
	seq := make([]core.Policy, 0, n)
	cur := c.First()
	for i := int64(0); i < n; i++ {
		seq = append(seq, cur)
		cur = c.Decide(win(i, cur, cost(i, cur)))
	}
	return seq
}

func TestNewNamesAndErrors(t *testing.T) {
	t.Parallel()
	c, err := New("pinned:resume", 0)
	if err != nil {
		t.Fatalf("pinned:resume: %v", err)
	}
	if got := c.First(); got != core.Resume {
		t.Errorf("pinned:resume First() = %v", got)
	}
	if got := c.Decide(win(0, core.Resume, 1)); got != core.Resume {
		t.Errorf("pinned:resume Decide() = %v", got)
	}

	// The last three are the strategies the chooser scoreboard retired.
	for _, bad := range []string{"oracle", "bandit", "", "tournament", "ucb", "egreedy"} {
		if _, err := New(bad, 0); err == nil {
			t.Errorf("New(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "phase:<period>, pinned:<policy>") {
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

// TestDeterminismSameSeed: every strategy, driven over the same window
// stream, must produce an identical decision sequence when rebuilt with the
// same seed — the property the engine-level bit-identity rests on.
func TestDeterminismSameSeed(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"phase", "phase:3", "phase:6", "pinned:decode"} {
		a, _ := New(name, 0xada9)
		b, _ := New(name, 0xada9)
		if !reflect.DeepEqual(drive(a, phasedCost, 2000), drive(b, phasedCost, 2000)) {
			t.Errorf("%s: same seed diverged", name)
		}
	}
}

// TestAllStrategiesReturnStatic: no strategy may ever answer a non-static
// policy, under any cost stream (here: adversarially spiky).
func TestAllStrategiesReturnStatic(t *testing.T) {
	t.Parallel()
	spiky := func(idx int64, _ core.Policy) float64 { return float64(idx%13) * 0.7 }
	for _, name := range []string{"phase:2", "phase:3", "phase:6", "phase:13", "pinned:optimistic"} {
		c, _ := New(name, 7)
		for i, p := range drive(c, spiky, 2000) {
			if !p.IsStatic() {
				t.Fatalf("%s: window %d ran non-static %v", name, i, p)
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
		"pinned:resume", "pinned:adaptive", "pinned:", "", "phase:1", "phase:3", "pinned:decode"} {
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
