// Package testonlyuse is the loader fixture for dependency file sets: it
// calls a function its dependency declares only in a _test.go file, so it
// fails to build, and the loader must report the same type error.
package testonlyuse

import "specfetch/internal/analysis/testdata/src/testonlydep"

// Use calls what `go build` cannot see.
func Use() { testonlydep.OnlyInTests() }
