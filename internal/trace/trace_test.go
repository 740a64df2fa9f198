package trace

import (
	"errors"
	"io"
	"math"
	"testing"

	"specfetch/internal/isa"
)

func TestRecordValidate(t *testing.T) {
	good := Record{Start: 0x1000, N: 4, BrKind: isa.CondBranch, Taken: true, Target: 0x2000}
	if err := good.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	bad := []Record{
		{Start: 0x1000, N: 0, BrKind: isa.Plain},                                // empty
		{Start: 0x1001, N: 1, BrKind: isa.Plain},                                // misaligned start
		{Start: 0x1000, N: 1, BrKind: isa.Plain, Taken: true},                   // plain taken
		{Start: 0x1000, N: 1, BrKind: isa.Jump, Taken: false},                   // uncond not taken
		{Start: 0x1000, N: 1, BrKind: isa.CondBranch, Taken: true, Target: 0x2}, // misaligned target
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d accepted: %+v", i, r)
		}
	}
}

func TestRecordNextPC(t *testing.T) {
	taken := Record{Start: 0x1000, N: 4, BrKind: isa.Jump, Taken: true, Target: 0x3000}
	if taken.NextPC() != 0x3000 {
		t.Errorf("taken NextPC = %s", taken.NextPC())
	}
	if taken.BranchPC() != 0x100c {
		t.Errorf("BranchPC = %s", taken.BranchPC())
	}
	nt := Record{Start: 0x1000, N: 4, BrKind: isa.CondBranch}
	if nt.NextPC() != 0x1010 {
		t.Errorf("not-taken NextPC = %s", nt.NextPC())
	}
	plain := Record{Start: 0x1000, N: 6, BrKind: isa.Plain}
	if plain.NextPC() != 0x1018 {
		t.Errorf("plain NextPC = %s", plain.NextPC())
	}
}

func TestSliceReader(t *testing.T) {
	recs := []Record{
		{Start: 0, N: 2, BrKind: isa.Plain},
		{Start: 8, N: 1, BrKind: isa.Jump, Taken: true, Target: 0},
	}
	r := NewSliceReader(recs)
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("Next %d: %v", i, err)
		}
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
	r.Reset()
	if _, err := r.Next(); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

func TestCollectContinuity(t *testing.T) {
	good := []Record{
		{Start: 0, N: 2, BrKind: isa.Plain},
		{Start: 8, N: 1, BrKind: isa.Jump, Taken: true, Target: 0x40},
		{Start: 0x40, N: 3, BrKind: isa.Plain},
	}
	got, err := Collect(NewSliceReader(good))
	if err != nil || len(got) != 3 {
		t.Fatalf("Collect good: %v, %d records", err, len(got))
	}

	disc := []Record{
		{Start: 0, N: 2, BrKind: isa.Plain},
		{Start: 0x100, N: 1, BrKind: isa.Plain}, // should start at 8
	}
	if _, err := Collect(NewSliceReader(disc)); err == nil {
		t.Error("discontinuity not detected")
	}
}

func TestStatsAccumulation(t *testing.T) {
	recs := []Record{
		{Start: 0, N: 5, BrKind: isa.CondBranch, Taken: true, Target: 0x40},
		{Start: 0x40, N: 3, BrKind: isa.CondBranch, Taken: false},
		{Start: 0x4c, N: 2, BrKind: isa.Call, Taken: true, Target: 0x80},
		{Start: 0x80, N: 1, BrKind: isa.Return, Taken: true, Target: 0x54},
		{Start: 0x54, N: 4, BrKind: isa.IndirectJump, Taken: true, Target: 0},
		{Start: 0, N: 7, BrKind: isa.Plain},
	}
	st, err := Scan(NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 6 || st.Insts != 22 || st.Branches != 5 {
		t.Errorf("counts: %+v", st)
	}
	if st.Conditionals != 2 || st.TakenCond != 1 {
		t.Errorf("conds: %+v", st)
	}
	if st.Calls != 1 || st.Returns != 1 || st.Indirect != 2 {
		t.Errorf("uncond detail: %+v", st)
	}
	if bf := st.BranchFrac(); bf < 0.22 || bf > 0.23 {
		t.Errorf("BranchFrac = %v", bf)
	}
	if tf := st.TakenFrac(); tf != 0.5 {
		t.Errorf("TakenFrac = %v", tf)
	}
}

func TestLimitReader(t *testing.T) {
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, Record{Start: isa.Addr(i * 40), N: 10, BrKind: isa.Plain})
	}
	lr := NewLimitReader(NewSliceReader(recs), 35)
	st, err := Scan(lr)
	if err != nil {
		t.Fatal(err)
	}
	// Records are never split: 3 full records before crossing 35, plus the
	// one in flight.
	if st.Insts != 40 {
		t.Errorf("limited insts = %d, want 40", st.Insts)
	}
}

// TestBudgetLimit: a budget gets a quarter of headroom, and a budget that
// is not positive or whose limit overflows an int64 is refused.
func TestBudgetLimit(t *testing.T) {
	const fits = math.MaxInt64/5*4 + 2 // its limit is exactly MaxInt64
	for _, tc := range []struct {
		insts, want int64
		ok          bool
	}{
		{1, 1, true},
		{400_000, 500_000, true},
		{fits, math.MaxInt64, true},
		{0, 0, false},
		{-4, 0, false},
		{fits + 1, 0, false},
		{math.MaxInt64, 0, false},
	} {
		got, err := BudgetLimit(tc.insts)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("BudgetLimit(%d) = %d, %v; want %d, ok %v", tc.insts, got, err, tc.want, tc.ok)
		}
	}
}
