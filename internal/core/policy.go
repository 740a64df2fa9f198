// Package core implements the paper's contribution: a cycle-level model of a
// speculative superscalar fetch unit, the five instruction-cache fetch
// policies (Oracle, Optimistic, Resume, Pessimistic, Decode), next-line
// prefetching, and the ISPI penalty accounting of the evaluation section.
//
// The simulator is trace driven: the dynamic correct-path instruction stream
// comes from a trace.Reader, while wrong-path excursions after mispredicts
// and misfetches are reconstructed by walking the static program.Image under
// the live branch predictor, exactly as a real fetch unit would.
package core

import (
	"fmt"
	"strings"
)

// Policy selects how I-cache misses encountered during speculative execution
// are handled (paper Table 1).
type Policy int

const (
	// Oracle services a miss only if it is on the right path. It cannot be
	// built (it requires knowing branch outcomes at fetch time) and serves
	// as the yardstick.
	Oracle Policy = iota
	// Optimistic services every miss immediately; the blocking cache stalls
	// fetch until the fill completes, even if the machine learns meanwhile
	// that the miss was down a wrong path.
	Optimistic
	// Resume services every miss, but a one-line resume buffer receives
	// wrong-path fills so the machine can redirect to the correct path the
	// moment a mispredict/misfetch is detected; the fill completes in the
	// background and is written to the cache at the next miss.
	Resume
	// Pessimistic holds a miss until all outstanding branches have resolved
	// and all previous instructions have decoded, then fills only if the
	// miss turned out to be on the correct path.
	Pessimistic
	// Decode holds a miss only until the previous instructions have
	// decoded, guarding against misfetches but not mispredicts.
	Decode
	// Adaptive is the online meta-policy: a Chooser (see Config.Chooser and
	// internal/adaptive) re-selects one of the five static policies at every
	// AdaptInterval instructions, steering miss handling per program phase.
	// It is not one of the paper's policies and is excluded from Policies().
	Adaptive

	numPolicies
)

var policyNames = [numPolicies]string{
	Oracle:      "oracle",
	Optimistic:  "optimistic",
	Resume:      "resume",
	Pessimistic: "pessimistic",
	Decode:      "decode",
	Adaptive:    "adaptive",
}

// String returns the lower-case policy name.
func (p Policy) String() string {
	if p >= 0 && p < numPolicies {
		return policyNames[p]
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy is the inverse of Policy.String. Chooser strategy names
// ("phase:6", "pinned:resume") are deliberately not policies: they select
// how the Adaptive policy decides, not what the fetch unit does on a miss.
func ParsePolicy(s string) (Policy, error) {
	for i, n := range policyNames {
		if n == s {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown policy %q (valid: %s)", s, strings.Join(policyNames[:], ", "))
}

// Policies lists the paper's five static policies in presentation order.
// Adaptive is excluded: every sweep that iterates Policies() compares the
// paper's machines, and the meta-policy is requested explicitly.
func Policies() []Policy {
	return []Policy{Oracle, Optimistic, Resume, Pessimistic, Decode}
}

// IsStatic reports whether p is one of the five directly simulatable miss
// policies — the only values a Chooser may return.
func (p Policy) IsStatic() bool {
	return p >= 0 && p < Adaptive
}
