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

// TestMain doubles as the simlint executable: with the helper env var set,
// the test binary runs the real command on its arguments instead of the
// test suite, so the tests below drive the production flag path.
func TestMain(m *testing.M) {
	if os.Getenv("SIMLINT_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fixtures is the analysis package's fixture tree.
var fixtures = filepath.Join("..", "..", "internal", "analysis", "testdata", "src")

// simlint runs the command on args inside the analysis fixture package
// named fixture, and returns its stdout and stderr and its exit code.
func simlint(t *testing.T, fixture string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = filepath.Join(fixtures, fixture)
	cmd.Env = append(os.Environ(), "SIMLINT_HELPER=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return out.String(), errOut.String(), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), 0
}

// TestCleanPackageExitsZero: every analyzer over a fixture with no
// findings prints nothing and exits 0.
func TestCleanPackageExitsZero(t *testing.T) {
	out, msg, code := simlint(t, "unitcheckok", ".")
	if code != 0 || out != "" {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 0 and no findings", code, out, msg)
	}
}

// TestFindingsExitOne: the determinism fixture's findings print one per
// line as file:line:col: [determinism] message, exactly the lines its
// golden pins, and the run exits 1.
func TestFindingsExitOne(t *testing.T) {
	out, msg, code := simlint(t, "determinism", "-only", "determinism", ".")
	if code != 1 {
		t.Errorf("exit %d, want 1 (stderr %q)", code, msg)
	}
	want, err := os.ReadFile(filepath.Join(fixtures, "determinism", "determinism.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("stdout diverges from determinism.golden:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

// TestUsageErrorsExitTwo: an unknown analyzer and an unknown flag (the
// removed -json among them) are usage errors, exit 2 with no findings.
func TestUsageErrorsExitTwo(t *testing.T) {
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-only", "bogus", "."}, `unknown analyzer "bogus"`},
		{[]string{"-json", "."}, "flag provided but not defined: -json"},
	} {
		out, msg, code := simlint(t, "unitcheckok", c.args...)
		if code != 2 || out != "" || !strings.Contains(msg, c.msg) {
			t.Errorf("simlint %v: exit %d, stdout %q, stderr %q; want exit 2, no stdout and %q", c.args, code, out, msg, c.msg)
		}
	}
}
