package testonlydep

// OnlyInTests exists only in this package's test binary.
func OnlyInTests() {}
