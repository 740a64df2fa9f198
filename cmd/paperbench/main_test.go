package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"sort"
	"strings"
	"testing"

	"specfetch/internal/experiments"
)

// TestMain doubles as the paperbench executable: with the helper env var
// set, the test binary runs the real command on its arguments instead of
// the test suite, so the tests below drive the production flag path.
func TestMain(m *testing.M) {
	if os.Getenv("PAPERBENCH_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// paperbench runs the command on args and returns its stdout and stderr;
// err is non-nil when it exits non-zero.
func paperbench(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PAPERBENCH_HELPER=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// TestFigureCSV: -csv applies to figures too, which print their
// StackedBars CSV rows instead of the bars.
func TestFigureCSV(t *testing.T) {
	args := []string{"-bench", "gcc", "-insts", "20000", "-quiet"}
	out, msg, err := paperbench(t, append(args, "-figure", "1", "-csv")...)
	if err != nil {
		t.Fatalf("paperbench -figure 1 -csv: %v\n%s", err, msg)
	}
	fig, err := experiments.Figure1(experiments.Options{Insts: 20_000, Benchmarks: []string{"gcc"}})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := fig.RenderCSV(&want); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "group,label,") || out != want.String()+"\n" {
		t.Errorf("stdout:\n%s\nwant the figure's CSV:\n%s", out, want.String())
	}
}

// TestOneRunSelector: a command line with two run selectors, or none, is
// a usage error that runs nothing. So is -stepmode: every paperbench cell
// runs the skip-ahead core.
func TestOneRunSelector(t *testing.T) {
	for _, args := range [][]string{
		{"-table", "5", "-figure", "3"},
		{"-sweep", "-modern"},
		{"-all", "-ablation", "bogus"},
		{"-oracle", "-sensitivity", "2"},
		{"-bench", "gcc"},
		{"-stepmode", "reference", "-table", "6"},
	} {
		out, _, err := paperbench(t, append(args, "-insts", "20000", "-quiet")...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || out != "" {
			t.Errorf("paperbench %v: err %v, stdout %q; want exit 2 and no output", args, err, out)
		}
	}
}

func TestAblationUsageNamesEveryAblation(t *testing.T) {
	got := strings.Split(strings.TrimPrefix(ablationUsage(), "run an ablation: "), "|")
	var want []string
	for _, a := range experiments.Catalogue() {
		if name, ok := strings.CutPrefix(a.Name, "ablation "); ok {
			want = append(want, name)
		}
	}
	if len(want) == 0 || !sort.StringsAreSorted(want) || strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("-ablation help lists %v, want %v", got, want)
	}
}

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		flags []string // flags in effect
		bad   string   // flag the error must name; "" = accepted
	}{
		{[]string{"table", "bench", "insts"}, ""},
		{[]string{"table", "remote-workers"}, ""},
		{[]string{"table", "intervals-out"}, "intervals-out"},
		{[]string{"oracle", "intervals-out", "interval", "flush-interval"}, ""},
		{[]string{"adaptive", "intervals-out"}, "intervals-out"},
		{[]string{"oracle", "adaptive", "intervals-out"}, "adaptive"},
		{[]string{"table", "strategy"}, "strategy"},
		{[]string{"oracle", "strategy"}, "strategy"},
		{[]string{"adaptive", "strategy", "interval", "flush-interval"}, ""},
		{[]string{"table", "flush-interval"}, "flush-interval"},
		{[]string{"figure", "interval"}, "interval"},
		{[]string{"table", "host-trace", "workers", "quiet"}, ""},
		{[]string{"table", "figure"}, "figure"},
		{[]string{"sweep", "modern"}, "modern"},
		{[]string{"all", "ablation"}, "ablation"},
		{[]string{"all", "sensitivity"}, "sensitivity"},
		{[]string{"sensitivity", "csv", "bench"}, ""},
	} {
		set := map[string]bool{}
		for _, f := range tc.flags {
			set[f] = true
		}
		sel, err := checkFlags(set)
		switch {
		case tc.bad == "" && err == nil && sel != tc.flags[0]:
			t.Errorf("%v: selected %q, want %q", tc.flags, sel, tc.flags[0])
		case tc.bad == "" && err != nil:
			t.Errorf("%v: unexpected error %v", tc.flags, err)
		case tc.bad != "" && err == nil:
			t.Errorf("%v: accepted, want -%s rejected", tc.flags, tc.bad)
		case tc.bad != "" && !strings.HasPrefix(err.Error(), "-"+tc.bad+" "):
			t.Errorf("%v: error %q does not name -%s", tc.flags, err, tc.bad)
		}
	}
}
