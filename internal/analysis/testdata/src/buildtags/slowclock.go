//go:build slowclock

package buildtags

import "time"

// started would be a determinism finding if the loader read this file.
var started = time.Now()
