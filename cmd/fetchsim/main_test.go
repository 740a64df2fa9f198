package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMain doubles as the fetchsim executable: with the helper env var set,
// the test binary runs the real command on its arguments instead of the
// test suite, so the golden test below drives the production flag path.
func TestMain(m *testing.M) {
	if os.Getenv("FETCHSIM_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSeriesGolden pins the bytes of the -series CSV and JSON output for
// one static and one adaptive cell. The adaptive cell flushes the I-cache
// and decides on a grid that is not a multiple of the series interval, so
// both boundary grids and mid-bulk interpolation are exercised. Run with
// -update to rewrite the goldens after an intended model change.
func TestSeriesGolden(t *testing.T) {
	cells := []struct {
		name string
		args []string
	}{
		{"static", []string{"-bench", "gcc", "-policy", "resume", "-insts", "100000", "-interval", "3000"}},
		{"adaptive", []string{"-bench", "porky", "-policy", "adaptive", "-strategy", "phase:6",
			"-adapt-interval", "2500", "-flush", "15000", "-penalty", "20", "-insts", "100000", "-interval", "3000"}},
	}
	for _, c := range cells {
		for _, ext := range []string{".csv", ".json"} {
			t.Run(c.name+ext, func(t *testing.T) {
				out := filepath.Join(t.TempDir(), "series"+ext)
				cmd := exec.Command(os.Args[0], append(c.args, "-series", out)...)
				cmd.Env = append(os.Environ(), "FETCHSIM_HELPER=1")
				if msg, err := cmd.CombinedOutput(); err != nil {
					t.Fatalf("fetchsim %v: %v\n%s", c.args, err, msg)
				}
				got, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", "series_"+c.name+ext)
				if *update {
					if err := os.WriteFile(path, got, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (run `go test -run SeriesGolden -update` to regenerate)", err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("series output diverged from %s (rerun with -update if intended)", path)
				}
			})
		}
	}
}
