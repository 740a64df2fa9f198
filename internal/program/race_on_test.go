//go:build race

package program

// raceEnabled reports that this test binary was built with the race
// detector, whose instrumentation allocates on its own, so allocation
// tests skip under it.
const raceEnabled = true
