//go:build unix

package buildtags

const platform = "unix"
