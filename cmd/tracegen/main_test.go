package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestMain doubles as the tracegen executable: with the helper env var
// set, the test binary runs the real command on its arguments instead of
// the test suite, so the tests below drive the production flag path.
func TestMain(m *testing.M) {
	if os.Getenv("TRACEGEN_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tracegen runs the command on args and returns its stdout and stderr and
// its exit code.
func tracegen(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TRACEGEN_HELPER=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out.String(), errOut.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), 0
}

// TestBadInputsFail: an unknown flag, no mode, a missing trace file, an
// unknown benchmark, an unknown format, a second mode and a flag the
// chosen mode does not read each exit non-zero with a message naming the
// fault, and write nothing to stdout.
func TestBadInputsFail(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.trc")
	trc, img := filepath.Join(dir, "g.trc"), filepath.Join(dir, "img.bin")
	if _, msg, code := tracegen(t, "-bench", "gcc", "-insts", "1000", "-o", trc); code != 0 {
		t.Fatalf("generate: exit %d, stderr %q", code, msg)
	}
	for _, c := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{nil, 2, "Usage of"},
		{[]string{"-stats", missing}, 1, "tracegen: open " + missing + ": no such file"},
		{[]string{"-convert", missing, "-o", "-"}, 1, "tracegen: open " + missing + ": no such file"},
		{[]string{"-bench", "bogus"}, 1, `tracegen: unknown benchmark "bogus"`},
		{[]string{"-bench", "gcc", "-insts", "1000", "-format", "xml"}, 1, `tracegen: unknown format "xml"`},
		{[]string{"-stats", trc, "-bench", "gcc", "-imageout", img, "-format", "xml"}, 2,
			"tracegen: -bench selects a second mode beside -stats; give one"},
		{[]string{"-convert", trc, "-stats", trc}, 2, "tracegen: -convert selects a second mode beside -stats"},
		{[]string{"-stats", trc, "-format", "text"}, 2, "tracegen: -format is only read with -bench or -convert"},
		{[]string{"-stats", trc, "-o", "-"}, 2, "tracegen: -o is only read with -bench or -convert"},
		{[]string{"-convert", trc, "-imageout", img}, 2, "tracegen: -imageout is only read with -bench"},
		{[]string{"-convert", trc, "-insts", "10"}, 2, "tracegen: -insts is only read with -bench"},
		{[]string{"-convert", trc, "-seed", "2"}, 2, "tracegen: -seed is only read with -bench"},
		{[]string{"-stats", trc, "-gzip"}, 2, "tracegen: -gzip is only read with -bench or -convert"},
	} {
		out, msg, code := tracegen(t, c.args...)
		if code != c.code || out != "" || !strings.Contains(msg, c.msg) {
			t.Errorf("tracegen %v: exit %d, stdout %q, stderr %q; want exit %d, no stdout and %q",
				c.args, code, out, msg, c.code, c.msg)
		}
	}
	if _, err := os.Stat(img); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused command line wrote %s (stat: %v)", img, err)
	}
}

// TestGenerateStatsConvert: a small generated trace exits 0, its -stats
// summary counts what was generated, and a text transcode of it holds one
// line per record.
func TestGenerateStatsConvert(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gcc.trc")
	if out, msg, code := tracegen(t, "-bench", "gcc", "-insts", "5000", "-o", path); code != 0 || out != "" {
		t.Fatalf("generate: exit %d, stdout %q, stderr %q; want exit 0 and no stdout", code, out, msg)
	}
	stats, msg, code := tracegen(t, "-stats", path)
	if code != 0 || !strings.HasPrefix(stats, "records        ") || !strings.Contains(stats, "\ninstructions   ") {
		t.Fatalf("-stats: exit %d, stdout %q, stderr %q", code, stats, msg)
	}
	text, msg, code := tracegen(t, "-convert", path, "-format", "text", "-o", "-")
	if code != 0 {
		t.Fatalf("-convert: exit %d, stderr %q", code, msg)
	}
	records := strings.Fields(stats)[1]
	if got := strconv.Itoa(strings.Count(text, "\n")); got != records {
		t.Errorf("text transcode has %s lines, -stats counts %s records", got, records)
	}
}
