package bpred

import "testing"

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from empty stack succeeded")
	}
	r.Push(0x100)
	r.Push(0x200)
	if got, ok := r.Pop(); !ok || got != 0x200 {
		t.Fatalf("pop = %v, %v", got, ok)
	}
	if got, ok := r.Pop(); !ok || got != 0x100 {
		t.Fatalf("pop = %v, %v", got, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop from drained stack succeeded")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(0x100)
	r.Push(0x200)
	r.Push(0x300) // overwrites 0x100
	if got, _ := r.Pop(); got != 0x300 {
		t.Fatalf("pop1 = %v", got)
	}
	if got, _ := r.Pop(); got != 0x200 {
		t.Fatalf("pop2 = %v", got)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("oldest entry survived overflow")
	}
}

// TestRASDepthClamp: a depth below one is clamped to one entry, so the
// stack keeps only the newest of two pushes.
func TestRASDepthClamp(t *testing.T) {
	r := NewRAS(0)
	r.Push(0x100)
	r.Push(0x200)
	if got, ok := r.Pop(); !ok || got != 0x200 {
		t.Fatalf("pop = %v, %v; want 0x200", got, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Error("depth-0 stack held more than one entry")
	}
}

func TestRASNesting(t *testing.T) {
	r := NewRAS(8)
	// Simulate call nesting a(b(c)) returning in order.
	r.Push(0xa)
	r.Push(0xb)
	r.Push(0xc)
	for _, want := range []uint64{0xc, 0xb, 0xa} {
		got, ok := r.Pop()
		if !ok || uint64(got) != want {
			t.Fatalf("pop = %v, %v; want %#x", got, ok, want)
		}
	}
}
