// Package testonlydep is imported by the testonlyuse fixture. Its
// OnlyInTests function lives in a _test.go file, so no importer can see it.
package testonlydep

// A is the package's one exported function outside its tests.
func A() {}
