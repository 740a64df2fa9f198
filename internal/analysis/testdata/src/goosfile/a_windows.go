package goosfile

// X is the Windows build's value; its _windows suffix keeps this file out
// of every other build.
var X = 2
