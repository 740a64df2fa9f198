// Return-address stack extension. The paper's machine predicts returns
// through the BTB only (one stale target per site); a RAS predicts them from
// the dynamic call nesting, which is what every later fetch architecture
// adopted. The engine uses it when Config.UseRAS is set, as an ablation of
// the paper's design point.
package bpred

import "specfetch/internal/isa"

// RAS is a fixed-depth return-address stack with wrap-around overwrite on
// overflow (the common hardware behaviour: deep recursion silently loses
// the oldest entries).
type RAS struct {
	entries []isa.Addr
	top     int // index of the next push slot
	size    int // live entries, capped at len(entries)
}

// NewRAS builds a stack with the given depth (a power of two is customary
// but not required).
func NewRAS(depth int) *RAS {
	if depth < 1 {
		depth = 1
	}
	return &RAS{entries: make([]isa.Addr, depth)}
}

// Push records a return address at a call.
func (r *RAS) Push(ret isa.Addr) {
	r.entries[r.top] = ret
	r.top = (r.top + 1) % len(r.entries)
	if r.size < len(r.entries) {
		r.size++
	}
}

// Pop predicts (and consumes) the return address for a return instruction.
// It reports false when the stack has underflowed.
func (r *RAS) Pop() (isa.Addr, bool) {
	if r.size == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.size--
	return r.entries[r.top], true
}
