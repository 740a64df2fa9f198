// Package buildtags is the loader fixture for //go:build lines. Each name
// below is declared in a file whose constraint the default build
// environment satisfies (platform in exactly one of unix.go and
// notunix.go), so the package type-checks only when the loader keeps
// exactly those files. slowclock.go, gated behind a custom tag, holds a
// finding that must never be reported.
package buildtags

// Tags uses one name from each constrained file.
var Tags = []string{platform, compiler, release}
