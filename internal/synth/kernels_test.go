package synth

import (
	"testing"

	"specfetch/internal/trace"
)

func TestLoopKernelValid(t *testing.T) {
	k, err := LoopKernel(64, 16)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(trace.NewLimitReader(k.NewWalker(1), 50_000))
	if err != nil {
		t.Fatal(err)
	}
	st := trace.Stats{}
	for _, r := range recs {
		st.Add(r)
	}
	// One conditional per ~65 instructions, taken ~15/16 of the time.
	if tf := st.TakenFrac(); tf < 0.90 || tf > 0.97 {
		t.Errorf("loop taken fraction %.3f outside [0.90,0.97]", tf)
	}
	if _, err := LoopKernel(0, 4); err == nil {
		t.Error("zero body accepted")
	}
	if _, err := LoopKernel(8, 0.5); err == nil {
		t.Error("sub-1 trips accepted")
	}
}

func TestCallKernelStackBalance(t *testing.T) {
	k, err := CallKernel(6, 10)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.Scan(trace.NewLimitReader(k.NewWalker(1), 50_000))
	if err != nil {
		t.Fatal(err)
	}
	if st.Calls == 0 || st.Returns == 0 {
		t.Fatal("no calls/returns")
	}
	diff := st.Calls - st.Returns
	if diff < 0 || diff > 6 {
		t.Errorf("call/return imbalance %d beyond chain depth", diff)
	}
	if _, err := CallKernel(0, 5); err == nil {
		t.Error("zero depth accepted")
	}
}

func TestDispatchKernelTargets(t *testing.T) {
	const fanout = 8
	k, err := DispatchKernel(fanout, 6)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	rd := trace.NewLimitReader(k.NewWalker(1), 50_000)
	for {
		rec, err := rd.Next()
		if err != nil {
			break
		}
		if rec.BrKind.IsIndirect() {
			seen[uint64(rec.Target)] = true
		}
	}
	if len(seen) != fanout {
		t.Errorf("dispatch used %d distinct targets, want %d", len(seen), fanout)
	}
	if _, err := DispatchKernel(1, 6); err == nil {
		t.Error("fanout 1 accepted")
	}
}

func TestKernelTraceContinuity(t *testing.T) {
	for name, mk := range map[string]func() (*Bench, error){
		"loop":     func() (*Bench, error) { return LoopKernel(32, 8) },
		"call":     func() (*Bench, error) { return CallKernel(4, 8) },
		"dispatch": func() (*Bench, error) { return DispatchKernel(4, 8) },
	} {
		k, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := trace.Collect(trace.NewLimitReader(k.NewWalker(2), 30_000)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSiteTableChecks: every bench constructor indexes its sites through
// newBench, which refuses a site on an instruction of another kind, two
// sites on one instruction, and a site outside the image.
func TestSiteTableChecks(t *testing.T) {
	k, err := LoopKernel(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	img, cond := k.Image(), k.conds[0]
	for _, c := range []struct {
		name  string
		conds []condMeta
	}{
		{"plain", []condMeta{{pc: img.Base(), class: classLoop}}},
		{"twice", []condMeta{cond, cond}},
		{"outside", []condMeta{{pc: img.End(), class: classLoop}}},
	} {
		if _, err := newBench(k.profile, img, k.entry, k.loopStart, c.conds, nil); err == nil {
			t.Errorf("%s: site table accepted", c.name)
		}
	}
	if _, err := newBench(k.profile, img, k.entry, k.loopStart, nil,
		[]indirectMeta{{pc: cond.pc}}); err == nil {
		t.Error("indirect site on a conditional accepted")
	}
}
