package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/experiments"
	"specfetch/internal/program"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMain doubles as the fetchsim executable: with the helper env var set,
// the test binary runs the real command on its arguments instead of the
// test suite, so the tests below drive the production flag path.
func TestMain(m *testing.M) {
	if os.Getenv("FETCHSIM_HELPER") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fetchsim runs the command on args in dir and returns its stdout and
// stderr; err is non-nil when it exits non-zero.
func fetchsim(t *testing.T, dir string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "FETCHSIM_HELPER=1")
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// checkGolden compares got with testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -update` to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output diverged from %s (rerun with -update if intended)\ngot:\n%s", path, got)
	}
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
				if _, msg, err := fetchsim(t, ".", append(c.args, "-series", out)...); err != nil {
					t.Fatalf("fetchsim %v: %v\n%s", c.args, err, msg)
				}
				got, err := os.ReadFile(out)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, "series_"+c.name+ext, got)
			})
		}
	}
}

// writeGCCTrace writes into dir the files `tracegen -bench gcc -insts
// 300000 -imageout gcc.img -o gcc.trc` writes: gcc's image and its
// stream on seed 1, fetchsim's default seed.
func writeGCCTrace(t *testing.T, dir string) {
	t.Helper()
	b, err := synth.Build(synth.GCC())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := trace.Collect(b.NewReader(1, 300_000))
	if err != nil {
		t.Fatal(err)
	}
	var img, trc bytes.Buffer
	if err := program.WriteImage(&img, b.Image()); err != nil {
		t.Fatal(err)
	}
	w := trace.NewBinaryWriter(&trc)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"gcc.img": img.Bytes(), "gcc.trc": trc.Bytes()} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStdoutGolden pins the printed report of a static, an adaptive and
// an audited run, and of a trace-file replay cut at a budget and run to
// the file's end (-insts 0).
func TestStdoutGolden(t *testing.T) {
	dir := t.TempDir()
	writeGCCTrace(t, dir)
	for _, c := range []struct {
		name string
		args []string
	}{
		{"static", []string{"-bench", "gcc", "-policy", "resume", "-insts", "100000"}},
		{"adaptive", []string{"-bench", "porky", "-policy", "adaptive", "-strategy", "phase:6",
			"-adapt-interval", "2500", "-flush", "15000", "-penalty", "20", "-insts", "400000"}},
		{"audited", []string{"-bench", "groff", "-policy", "pessimistic", "-prefetch", "-penalty", "20",
			"-insts", "100000", "-audit"}},
		{"file", []string{"-image", "gcc.img", "-trace", "gcc.trc", "-insts", "200000",
			"-policy", "pessimistic", "-audit"}},
		{"file_whole", []string{"-image", "gcc.img", "-trace", "gcc.trc", "-insts", "0", "-policy", "resume"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, msg, err := fetchsim(t, dir, c.args...)
			if err != nil {
				t.Fatalf("fetchsim %v: %v\n%s", c.args, err, msg)
			}
			checkGolden(t, "stdout_"+c.name+".txt", []byte(out))
		})
	}
}

// TestReplayMatchesBench: a trace file of gcc's stream replayed against
// gcc's image prints the report of the -bench run, below the line naming
// the input.
func TestReplayMatchesBench(t *testing.T) {
	dir := t.TempDir()
	writeGCCTrace(t, dir)
	run := []string{"-insts", "200000", "-policy", "pessimistic", "-audit"}
	body := func(args ...string) string {
		out, msg, err := fetchsim(t, dir, append(args, run...)...)
		if err != nil {
			t.Fatalf("fetchsim %v: %v\n%s", args, err, msg)
		}
		first, rest, _ := strings.Cut(out, "\n")
		if !strings.HasPrefix(first, "benchmark ") {
			t.Fatalf("report starts %q, want the benchmark line", first)
		}
		return rest
	}
	file, bench := body("-image", "gcc.img", "-trace", "gcc.trc"), body("-bench", "gcc")
	if file != bench {
		t.Errorf("replay report differs from the -bench run\nreplay:\n%s\nbench:\n%s", file, bench)
	}
}

// TestRejectsBadSpecs: settings a sweep cell's spec refuses, and an event
// ring below one slot, make fetchsim exit 1 with the error, not run
// without them; an observability flag without the output that reads it,
// -bench or -seed on a trace-file replay, and a run flag beside -list are
// usage errors (exit 2).
func TestRejectsBadSpecs(t *testing.T) {
	dir := t.TempDir()
	writeGCCTrace(t, dir)
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-audit-sample", "-3"}, 1, "negative audit sample -3"},
		{[]string{"-policy", "resume", "-strategy", "phase:6"}, 1, "non-adaptive policy resume"},
		{[]string{"-policy", "resume", "-adapt-interval", "5000"}, 1, "non-adaptive policy resume"},
		{[]string{"-series", "s.csv", "-interval", "0"}, 1, "requires a positive sample_interval"},
		{[]string{"-image", "gcc.img", "-trace", "gcc.trc", "-audit-sample", "-3"}, 1, "negative audit sample -3"},
		{[]string{"-image", "gcc.img", "-trace", "gcc.trc", "-policy", "oracle", "-strategy", "phase:6"},
			1, "non-adaptive policy oracle"},
		{[]string{"-events", "e.jsonl", "-event-cap", "0"}, 1, "-event-cap 0"},
		{[]string{"-timeline", "t.json", "-event-cap", "-5"}, 1, "-event-cap -5"},
		{[]string{"-interval", "-5"}, 2, "-interval is only read with -series or -timeline"},
		{[]string{"-events", "e.jsonl", "-interval", "5000"}, 2, "-interval is only read with"},
		{[]string{"-event-cap", "-5"}, 2, "-event-cap is only read with -events or -timeline"},
		{[]string{"-series", "s.csv", "-event-cap", "64"}, 2, "-event-cap is only read with"},
		{[]string{"-image", "gcc.img", "-trace", "gcc.trc", "-bench", "li", "-seed", "9"},
			2, "-bench is only read without -image and -trace"},
		{[]string{"-image", "gcc.img", "-trace", "gcc.trc", "-seed", "9"},
			2, "-seed is only read without -image and -trace"},
		{[]string{"-trace", "gcc.trc", "-bench", "gcc"}, 2, "-bench is only read without"},
		{[]string{"-list", "-bench", "li", "-policy", "bogus"}, 2, "-bench is not read with -list"},
	} {
		// The default -bench is gcc; a row names -bench only to test it.
		args := append([]string{"-insts", "20000"}, c.args...)
		out, msg, err := fetchsim(t, dir, args...)
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != c.code {
			t.Errorf("fetchsim %v: err %v, want exit %d\n%s", c.args, err, c.code, out)
			continue
		}
		if !strings.Contains(msg, c.want) {
			t.Errorf("fetchsim %v: stderr %q, want it to mention %q", c.args, msg, c.want)
		}
	}
}

// TestBenchPathMatchesJobRunner: fetchsim's -bench path returns, for the
// same spec, exactly what a sweep worker returns.
func TestBenchPathMatchesJobRunner(t *testing.T) {
	static := distsweep.JobSpec{Profile: synth.GCC(), Seed: 1, Insts: 50_000, AuditSample: 4}
	static.Config.Config = core.DefaultConfig()
	static.Config.Policy = core.Resume
	static.Config.RecordMisses = true

	adapt := distsweep.JobSpec{Profile: synth.Porky(), Seed: 7, Insts: 50_000, CaptureWindows: true}
	adapt.Config.Config = core.DefaultConfig()
	adapt.Config.Policy = core.Adaptive
	adapt.Config.AdaptStrategy = "phase:6"
	adapt.Config.AdaptInterval = 2500
	adapt.Config.FlushInterval = 15000
	adapt.Config.SampleInterval = 3000

	for _, spec := range []distsweep.JobSpec{static, adapt} {
		res, wins, err := runBench(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		jr, err := experiments.NewJobRunner(nil).Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, jr.Result) {
			t.Errorf("%s/%v: fetchsim result %+v\nworker result %+v", spec.Profile.Name, spec.Config.Policy, res, jr.Result)
		}
		if !reflect.DeepEqual(wins, jr.WindowSeries) {
			t.Errorf("%s/%v: fetchsim and the worker cut different window series", spec.Profile.Name, spec.Config.Policy)
		}
	}
}
