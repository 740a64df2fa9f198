// Package hosttime is the simulator's single sanctioned gateway to the
// host's monotonic clock. Simulation results must be a pure function of
// (config, trace, seed) — the determinism analyzer forbids wall-clock reads
// everywhere in the simulator packages — but *measuring the simulator*
// requires real time. Concentrating every clock read here keeps the
// exemption auditable: the analyzer allowlists exactly this package, so any
// other `time.Now()` in the tree is still a lint finding, and a reviewer
// can see at a glance that nothing read here ever feeds back into simulated
// state.
//
// The API deliberately exposes only opaque monotonic instants and
// durations: there is no way to obtain a calendar time, so host timestamps
// cannot leak into rendered artifacts and break byte-reproducibility.
package hosttime

import "time"

// Instant is an opaque monotonic timestamp. The zero Instant is "unset".
type Instant struct {
	t time.Time
}

// Now returns the current monotonic instant.
func Now() Instant {
	return Instant{t: time.Now()}
}

// Since returns the host time elapsed from start to now.
func Since(start Instant) time.Duration {
	return time.Since(start.t)
}

// Sub returns the duration t - u.
func (t Instant) Sub(u Instant) time.Duration {
	return t.t.Sub(u.t)
}
