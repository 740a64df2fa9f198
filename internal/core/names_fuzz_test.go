package core

import "testing"

// FuzzParsePolicy: names arrive from flags and files, so ParsePolicy must
// never panic, and any name it accepts must be the one String prints.
func FuzzParsePolicy(f *testing.F) {
	for _, n := range policyNames {
		f.Add(n)
	}
	f.Add("Resume")
	f.Add("policy(9)")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePolicy(s)
		if err == nil && p.String() != s {
			t.Fatalf("ParsePolicy(%q) = %v, which prints as %q", s, int(p), p.String())
		}
	})
}

// FuzzParseStepMode is FuzzParsePolicy for step-mode names.
func FuzzParseStepMode(f *testing.F) {
	for _, n := range stepModeNames {
		f.Add(n)
	}
	f.Add("Reference")
	f.Add("stepmode(2)")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		m, err := ParseStepMode(s)
		if err == nil && m.String() != s {
			t.Fatalf("ParseStepMode(%q) = %v, which prints as %q", s, int(m), m.String())
		}
	})
}
