package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the report executable: with the helper env var set,
// the test binary runs the real command on its arguments instead of the
// test suite, so the tests below drive the production flag path.
func TestMain(m *testing.M) {
	if os.Getenv("REPORT_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// report runs the command on args and returns its stdout and stderr and
// its exit code.
func report(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPORT_HELPER=1")
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

// TestBuilderErrorFailsTheReport: a budget every builder refuses stops
// the report with exit 1 and the builder's error on stderr, never an
// ERROR: line inside a document that looks complete.
func TestBuilderErrorFailsTheReport(t *testing.T) {
	out, msg, code := report(t, "-insts", "0", "-o", "-")
	if code != 1 || strings.Contains(out, "ERROR:") || strings.Contains(out, "## ") {
		t.Errorf("exit %d, stdout:\n%s\nwant exit 1 and no section", code, out)
	}
	if !strings.Contains(msg, "report: table 2: ") || !strings.Contains(msg, "budget 0") {
		t.Errorf("stderr %q does not name the failing builder and its error", msg)
	}
}

// TestBuilderErrorWritesNoFile: a failed run with -o creates no file and
// leaves an existing one as it was, so a half-built report never stands
// in for a complete one.
func TestBuilderErrorWritesNoFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.md")
	if _, _, code := report(t, "-insts", "0", "-o", path); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("failed run left %s behind (stat: %v)", path, err)
	}

	const old = "an earlier report\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := report(t, "-insts", "0", "-o", path); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != old {
		t.Errorf("failed run changed %s: %q, %v; want %q", path, got, err, old)
	}
}

// TestNoQuickFlag: the budget has one flag, -insts.
func TestNoQuickFlag(t *testing.T) {
	out, msg, code := report(t, "-quick")
	if code != 2 || out != "" || !strings.Contains(msg, "flag provided but not defined: -quick") {
		t.Errorf("report -quick: exit %d, stdout %q, stderr %q; want a usage error", code, out, msg)
	}
}
