package core

import "fmt"

// StepMode selects how the engine advances simulated time. Both modes are
// the same machine: the skip-ahead core is proven bit-identical to the
// reference stepper (same Result, same probe event stream, same rendered
// tables) by the differential suite in stepmode_diff_test.go, which is what
// makes skip-ahead safe as the zero-value default.
type StepMode int

const (
	// StepSkipAhead is the next-event core: when every resource is
	// idle-waiting on a known completion time (fills, bus busy-until,
	// decode/resolve gates, cond-retire times), the clock jumps straight to
	// the next event and the skipped interval is accounted in bulk as typed
	// Slots/Cycles deltas. Plain-instruction runs with resident lines are
	// issued in bulk as well. This is the default.
	StepSkipAhead StepMode = iota
	// StepReference is the legacy cycle-by-cycle stepper, kept as the
	// executable specification the skip-ahead core is verified against.
	StepReference

	numStepModes
)

var stepModeNames = [numStepModes]string{
	StepSkipAhead: "skipahead",
	StepReference: "reference",
}

// String returns the lower-case mode name.
func (m StepMode) String() string {
	if m >= 0 && m < numStepModes {
		return stepModeNames[m]
	}
	return fmt.Sprintf("stepmode(%d)", int(m))
}

// ParseStepMode is the inverse of StepMode.String.
func ParseStepMode(s string) (StepMode, error) {
	for i, n := range stepModeNames {
		if n == s {
			return StepMode(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown step mode %q", s)
}
