//go:build gc

package buildtags

const compiler = "gc"
