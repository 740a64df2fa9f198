package core

import (
	"reflect"
	"testing"

	"specfetch/internal/bpred"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// TestRecordMissesKeepsFastIssue: recording the miss bitmap needs no
// per-reference hook, so a recording config keeps the skip-ahead bulk path.
func TestRecordMissesKeepsFastIssue(t *testing.T) {
	bench := synth.MustBuild(synth.GCC())
	cfg := DefaultConfig()
	cfg.RecordMisses = true
	cfg.MaxInsts = 1000
	e, err := NewEngine(cfg, bench.Image(), trace.NewLimitReader(bench.NewWalker(1), 2000), bpred.NewDefaultDecoupled())
	if err != nil {
		t.Fatal(err)
	}
	if !e.fastIssue {
		t.Error("RecordMisses disabled fastIssue under StepSkipAhead")
	}
}

// TestRecordMissesNeutral: with RecordMisses set, a run returns the Result
// it returns without it plus a valid miss bitmap.
func TestRecordMissesNeutral(t *testing.T) {
	const insts = 50_000
	for _, p := range []synth.Profile{synth.GCC(), synth.Su2cor()} {
		bench := synth.MustBuild(p)
		for _, pol := range Policies() {
			run := func(record bool) Result {
				cfg := DefaultConfig()
				cfg.Policy = pol
				cfg.MaxInsts = insts
				cfg.RecordMisses = record
				res, err := Run(cfg, bench.Image(), trace.NewLimitReader(bench.NewWalker(3), insts+insts/4),
					bpred.NewDefaultDecoupled())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			plain, rec := run(false), run(true)
			if plain.MissBits != nil {
				t.Errorf("%s/%v: bitmap recorded without RecordMisses", p.Name, pol)
			}
			bm := rec.MissBits
			rec.MissBits = nil
			if !reflect.DeepEqual(rec, plain) {
				t.Errorf("%s/%v: RecordMisses changed the Result\nrecorded %+v\n   plain %+v", p.Name, pol, rec, plain)
			}
			rec.MissBits = bm
			if plain.RightPathMisses == 0 || !rec.MissBitsValid() {
				t.Errorf("%s/%v: bitmap of %d words does not record the run's %d misses in %d references",
					p.Name, pol, len(bm), plain.RightPathMisses, plain.RightPathAccesses)
			}
		}
	}
}
