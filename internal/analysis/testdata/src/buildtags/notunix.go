//go:build !unix

package buildtags

const platform = "not unix"
