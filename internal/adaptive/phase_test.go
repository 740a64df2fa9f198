package adaptive

import (
	"reflect"
	"strings"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/metrics"
)

// phaseWin fabricates an indexed window digest: windows of 1000
// instructions, attributed to the given active policy at the given cost.
func phaseWin(idx int64, active core.Policy, lpi float64) core.AdaptWindow {
	w := core.AdaptWindow{Active: active}
	w.Index = int(idx)
	w.StartInsts, w.EndInsts = idx*1000, (idx+1)*1000
	w.StartCycle, w.EndCycle = idx*2000, (idx+1)*2000
	w.Lost[metrics.RTICache] = int64(lpi * 1000)
	return w
}

// phasedCost is a synthetic flush-phase cost model over a period-6 phase
// with a 2-window cold class: cold windows cost a lot for everyone (the
// refill), warm windows little, and on top of that common mode one arm is
// genuinely cheaper cold (resume) and a different arm cheaper warm
// (optimistic) — the structure Phase exists to discover.
func phasedCost(idx int64, pol core.Policy) float64 {
	pos := idx % 6
	base := 0.8
	if pos < 2 {
		base = 3.0
	}
	switch {
	case pos < 2 && pol == core.Resume:
		base -= 0.25
	case pos >= 2 && pol == core.Optimistic:
		base -= 0.25
	}
	return base
}

// drivePhase feeds a chooser the phased cost model for n windows and
// returns the policy chosen for each window index (entry i ran window i).
func drivePhase(c core.Chooser, n int64) []core.Policy {
	seq := make([]core.Policy, 0, n)
	cur := c.First()
	for i := int64(0); i < n; i++ {
		seq = append(seq, cur)
		cur = c.Decide(phaseWin(i, cur, phasedCost(i, cur)))
		if !cur.IsStatic() {
			panic("phase returned a non-static policy")
		}
	}
	return seq
}

func TestPhaseParse(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"phase", "phase:2", "phase:6", "phase:100", "phase:65536"} {
		c, err := New(name, 0)
		if err != nil || c == nil {
			t.Errorf("New(%q): %v", name, err)
			continue
		}
		if got := c.First(); got != core.Policies()[0] {
			t.Errorf("New(%q).First() = %v, want %v", name, got, core.Policies()[0])
		}
	}
	for _, bad := range []string{"phase:", "phase:x", "phase:0", "phase:1", "phase:-3", "phase:6.5",
		// huge: each would ask NewPhase for gigabytes or more, or panic in make
		"phase:65537", "phase:100000000000", "phase:1000000000000", "phase:4611686018427387904",
		"phase:9223372036854775807",
		// negative
		"phase:-1", "phase:-9223372036854775808",
		// overflowing int64
		"phase:9223372036854775808", "phase:-9223372036854775809", "phase:99999999999999999999",
	} {
		if _, err := New(bad, 0); err == nil {
			t.Errorf("New(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "period") {
			t.Errorf("New(%q) error %q does not explain the period", bad, err)
		}
	}
	if !strings.Contains(strings.Join(Names(), " "), "phase:<period>") {
		t.Errorf("Names() %v does not advertise phase:<period>", Names())
	}
}

// TestPhaseLearnsPerClassWinners: under the synthetic flush-phase cost
// model, the chooser must converge to running the cold-cheap arm in the
// cold class and the warm-cheap arm in the warm class for the overwhelming
// majority of late windows — the per-class follow-the-leader behaviour the
// whole design exists for. (Probe blocks legitimately run other arms, so
// the bar is a majority, not unanimity.)
func TestPhaseLearnsPerClassWinners(t *testing.T) {
	t.Parallel()
	p, err := NewPhase(6)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	seq := drivePhase(p, n)
	var coldRight, cold, warmRight, warm float64
	for i := int64(n / 2); i < n; i++ {
		if i%6 < 2 {
			cold++
			if seq[i] == core.Resume {
				coldRight++
			}
		} else {
			warm++
			if seq[i] == core.Optimistic {
				warmRight++
			}
		}
	}
	if coldRight/cold < 0.7 {
		t.Errorf("cold class ran the cheap arm in only %.0f%% of late windows", 100*coldRight/cold)
	}
	if warmRight/warm < 0.7 {
		t.Errorf("warm class ran the cheap arm in only %.0f%% of late windows", 100*warmRight/warm)
	}
}

// TestPhaseDeterminism: two independently built choosers driven over the
// same window stream produce the identical decision sequence — the
// property engine-level bit-identity (across step modes, worker pools, and
// remote worker processes) rests on.
func TestPhaseDeterminism(t *testing.T) {
	t.Parallel()
	a, err := New("phase:6", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New("phase:6", 99) // the seed must be irrelevant
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drivePhase(a, 2000), drivePhase(b, 2000)) {
		t.Error("identical window streams produced diverging phase decisions")
	}
}

// TestPhaseBlockCommitment: within one class block the chooser must never
// switch arms — the block is the unit of measurement, and a mid-block
// switch would reintroduce the one-window transition bias the design
// eliminates.
func TestPhaseBlockCommitment(t *testing.T) {
	t.Parallel()
	p, err := NewPhase(6)
	if err != nil {
		t.Fatal(err)
	}
	seq := drivePhase(p, 3000)
	for i := 1; i < len(seq); i++ {
		pos := int64(i) % 6
		if pos == 0 || pos == 2 {
			continue // block boundaries: switches are legal here
		}
		if seq[i] != seq[i-1] {
			t.Fatalf("arm switched mid-block at window %d (%v -> %v)", i, seq[i-1], seq[i])
		}
	}
}
