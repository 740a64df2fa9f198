package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as the intervals executable: with the helper env var
// set, the test binary runs the real command on its arguments instead of
// the test suite, so the tests below drive the production flag path.
func TestMain(m *testing.M) {
	if os.Getenv("INTERVALS_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// intervals runs the command on args with stdin as its input and returns
// its stdout and stderr and its exit code.
func intervals(t *testing.T, stdin string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "INTERVALS_HELPER=1")
	cmd.Stdin = strings.NewReader(stdin)
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

// series is a well-formed intervals JSONL: one 100-instruction window of
// gcc at 5c under each static policy, Oracle (policy 0) the cheapest.
func series() string {
	lines := make([]string, 5)
	for pol := range lines {
		lines[pol] = fmt.Sprintf(`{"v":1,"bench":"gcc","penalty":5,"policy":%d,"interval":100,"windows":[`+
			`{"index":0,"start_insts":0,"end_insts":100,"start_cycle":0,"end_cycle":40,"lost":[%d,0,0,0,0,0],"accesses":3,"misses":1,"bus_transfers":1,"bus_busy":5}]}`+"\n",
			pol, 10+pol)
	}
	return strings.Join(lines, "")
}

// TestBadInputsFail: an unknown flag, two input files, -csv beside
// -winners-only (which prints no table to format), a missing file, an
// empty input and a series under a policy that is not static each exit
// non-zero with a message naming the fault, and print no report.
func TestBadInputsFail(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	adaptive := series() + strings.Replace(strings.SplitAfter(series(), "\n")[0], `"policy":0`, `"policy":5`, 1)
	for _, c := range []struct {
		stdin string
		args  []string
		code  int
		msg   string
	}{
		{series(), []string{"-bogus"}, 2, "flag provided but not defined: -bogus"},
		{"", []string{missing, missing}, 2, "usage: intervals"},
		{series(), []string{"-csv", "-winners-only"}, 2, "intervals: -csv is only read without -winners-only"},
		{"", []string{missing}, 1, "intervals: open " + missing + ": no such file"},
		{"", nil, 1, "intervals: intervals jsonl: no records"},
		{adaptive, nil, 1, "intervals: intervals jsonl line 6: "},
	} {
		out, msg, code := intervals(t, c.stdin, c.args...)
		if code != c.code || out != "" || !strings.Contains(msg, c.msg) {
			t.Errorf("intervals %v: exit %d, stdout %q, stderr %q; want exit %d, no stdout and %q",
				c.args, code, out, msg, c.code, c.msg)
		}
	}
}

// TestRendersSeries: a well-formed series renders the crossover table and
// the winner map with exit 0, the same from a file as from stdin, and
// -winners-only prints the map alone.
func TestRendersSeries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.jsonl")
	if err := os.WriteFile(path, []byte(series()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, msg, code := intervals(t, "", path)
	if code != 0 || msg != "" || !strings.Contains(out, "gcc           5c       Oracle") {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 0 and a gcc@5c row won by Oracle", code, out, msg)
	}
	if piped, _, code := intervals(t, series()); code != 0 || piped != out {
		t.Errorf("stdin input: exit %d, stdout %q; want exit 0 and the file's report %q", code, piped, out)
	}
	winners, _, code := intervals(t, series(), "-winners-only")
	if code != 0 || winners == "" || !strings.HasSuffix(out, "\n\n"+winners) {
		t.Errorf("-winners-only: exit %d, stdout %q; want the winner map that ends the full report", code, winners)
	}
}
