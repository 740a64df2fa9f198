package synth

import (
	"testing"

	"specfetch/internal/isa"
	"specfetch/internal/trace"
)

func TestReorderPreservesDynamics(t *testing.T) {
	b := MustBuild(Li())
	rb, err := ReorderByProfile(b, 100_000, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Same static size (modulo alignment padding) and function count.
	if got, want := len(rb.Image().Funcs()), len(b.Image().Funcs()); got != want {
		t.Fatalf("function count changed: %d vs %d", got, want)
	}
	diff := rb.Image().NumInsts() - b.Image().NumInsts()
	if diff < -len(b.Image().Funcs())*8 || diff > len(b.Image().Funcs())*8 {
		t.Errorf("image size drifted too much: %d vs %d", rb.Image().NumInsts(), b.Image().NumInsts())
	}

	// The reordered benchmark walks valid, continuous traces.
	recs, err := trace.Collect(trace.NewLimitReader(rb.NewWalker(2), 100_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty reordered trace")
	}

	// Identical stream seeds make identical *decisions*: the branch/taken
	// statistics match the original exactly even though addresses moved.
	stOld, err := trace.Scan(trace.NewLimitReader(b.NewWalker(7), 100_000))
	if err != nil {
		t.Fatal(err)
	}
	stNew, err := trace.Scan(trace.NewLimitReader(rb.NewWalker(7), 100_000))
	if err != nil {
		t.Fatal(err)
	}
	if stOld.Branches != stNew.Branches || stOld.TakenCond != stNew.TakenCond ||
		stOld.Calls != stNew.Calls || stOld.Insts != stNew.Insts {
		t.Errorf("dynamic statistics changed:\nold %+v\nnew %+v", stOld, stNew)
	}
}

func TestReorderHotFunctionsFirst(t *testing.T) {
	b := MustBuild(DBpp())
	rb, err := ReorderByProfile(b, 150_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := profileFuncs(rb, 150_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	funcs := rb.Image().Funcs() // sorted by entry address
	// Hotness must be (weakly) decreasing along the new layout — allow
	// slack for ties and for profile noise between the walks, but the
	// first function must be much hotter than the last.
	first := counts[funcs[0].Entry]
	last := counts[funcs[len(funcs)-1].Entry]
	if first <= last {
		t.Errorf("first function count %d not above last %d", first, last)
	}
	// Entry and loop start stay consistent.
	if !rb.Image().Contains(rb.Entry()) {
		t.Error("entry escaped the image")
	}
}

func TestReorderImproves8KLocality(t *testing.T) {
	// Count distinct lines touched per window of the dynamic stream before
	// and after reordering: packing hot code must not increase the touched
	// working set.
	b := MustBuild(Groff())
	rb, err := ReorderByProfile(b, 200_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	geom := isa.MustLineGeom(isa.DefaultLineBytes)

	touched := func(bb *Bench) int {
		lines := map[uint64]bool{}
		rd := trace.NewLimitReader(bb.NewWalker(3), 200_000)
		for {
			rec, err := rd.Next()
			if err != nil {
				break
			}
			for i := 0; i < rec.N; i += geom.InstPerLine() {
				lines[geom.Line(rec.Start.Plus(i))] = true
			}
			lines[geom.Line(rec.Start.Plus(rec.N-1))] = true
		}
		return len(lines)
	}

	before, after := touched(b), touched(rb)
	if after > before {
		t.Errorf("reordering increased touched lines: %d -> %d", before, after)
	}
}

// TestFromProfile: only a bench Build made claims that its profile
// rebuilds it; a reordered layout and a kernel keep a profile that does
// not describe their image.
func TestFromProfile(t *testing.T) {
	b := MustBuild(Li())
	if !b.FromProfile() {
		t.Error("built bench does not report FromProfile")
	}
	rb, err := ReorderByProfile(b, 50_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rb.FromProfile() {
		t.Error("reordered bench reports FromProfile")
	}
	k, err := LoopKernel(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if k.FromProfile() {
		t.Error("kernel bench reports FromProfile")
	}
}
