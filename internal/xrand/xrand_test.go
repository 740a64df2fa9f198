package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 64; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds gave %d/64 identical values", same)
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(1)
	prop := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	sum := 0.0
	const n = 100_000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f, want ~0.5", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(11)
	const p, n = 0.25, 200_000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p // 3.0
	if math.Abs(mean-want) > 0.1 {
		t.Errorf("geometric mean %.3f, want ~%.3f", mean, want)
	}
	if r.Geometric(1) != 0 {
		t.Error("Geometric(1) != 0")
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Geometric(0) did not panic")
		}
	}()
	New(1).Geometric(0)
}

func TestZipfHeadHeavy(t *testing.T) {
	r := New(3)
	z := NewZipf(100, 1.0)
	if z.N() != 100 {
		t.Fatalf("N = %d", z.N())
	}
	counts := make([]int, 100)
	const n = 100_000
	for i := 0; i < n; i++ {
		v := z.Draw(r)
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf draw out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf not head heavy: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Item 0 under s=1 should get roughly 1/H(100) ~ 19% of draws.
	frac := float64(counts[0]) / n
	if frac < 0.10 || frac > 0.30 {
		t.Errorf("head fraction %.3f outside [0.10,0.30]", frac)
	}
}

func TestZipfFlat(t *testing.T) {
	r := New(9)
	z := NewZipf(10, 0.01) // nearly uniform
	counts := make([]int, 10)
	const n = 100_000
	for i := 0; i < n; i++ {
		counts[z.Draw(r)]++
	}
	for i, c := range counts {
		frac := float64(c) / n
		if frac < 0.07 || frac > 0.14 {
			t.Errorf("near-uniform Zipf item %d has fraction %.3f", i, frac)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(17)
	const n = 100_000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) fraction %.4f", frac)
	}
}
