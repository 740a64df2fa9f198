package hosttime

import (
	"runtime"
	"testing"
)

// TestMonotonic pins the clock contract: instants never run backwards, and
// elapsed time over real work is non-negative and finite.
func TestMonotonic(t *testing.T) {
	a := Now()
	// Burn a little real time without sleeping (this package is the
	// wall-clock exemption, but the test should still terminate promptly).
	x := 0
	for i := 0; i < 10_000; i++ {
		x += i
		runtime.Gosched()
	}
	_ = x
	b := Now()
	if d := b.Sub(a); d < 0 {
		t.Errorf("Instant.Sub went backwards: %v", d)
	}
	if d := Since(a); d < 0 {
		t.Errorf("Since went backwards: %v", d)
	}
}

// TestSubIsAntisymmetric: t.Sub(u) == -u.Sub(t).
func TestSubIsAntisymmetric(t *testing.T) {
	a := Now()
	b := Now()
	if b.Sub(a) != -a.Sub(b) {
		t.Errorf("Sub not antisymmetric: %v vs %v", b.Sub(a), a.Sub(b))
	}
}
