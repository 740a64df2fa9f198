//go:build go1.2

package buildtags

const release = "go1.2"
