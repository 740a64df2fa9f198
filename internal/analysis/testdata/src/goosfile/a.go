// Package goosfile is the loader fixture for file-name build constraints:
// a_windows.go redeclares X, so the package type-checks only when the
// loader drops that file on every other GOOS, as `go build` does.
package goosfile

// X is declared once per build.
var X = 1
