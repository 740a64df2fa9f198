package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"specfetch/internal/distsweep"
	"specfetch/internal/experiments"
	"specfetch/internal/obs"
	"specfetch/internal/sweeplog"
)

// TestMain doubles as the worker executable: with the helper env var set,
// the test binary runs the real daemon instead of the test suite, so the
// cross-process tests below spawn genuine separate worker processes
// running the production run() path.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEPWORKER_HELPER") == "1" {
		os.Exit(run([]string{"-addr", "127.0.0.1:0", "-quiet"}, os.Stderr))
	}
	os.Exit(m.Run())
}

// spawnWorker launches this test binary as a worker daemon process and
// returns its base URL and the process handle. The worker is killed at
// test cleanup (if still alive).
func spawnWorker(t *testing.T) (string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SWEEPWORKER_HELPER=1")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting worker: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	// The daemon announces its bound address as its first stderr line.
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if _, ok := strings.CutPrefix(line, "sweepworker: listening on "); ok {
			addr = strings.TrimPrefix(line, "sweepworker: listening on ")
			break
		}
	}
	if addr == "" {
		t.Fatalf("worker never announced its address (scan err: %v)", sc.Err())
	}
	// Keep draining stderr so the child never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	return "http://" + addr, cmd
}

// jobsDone polls a worker's /healthz for its completed-job count.
func jobsDone(t *testing.T, url string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		return -1
	}
	defer func() { _ = resp.Body.Close() }()
	var h struct {
		JobsDone int64 `json:"jobs_done"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return -1
	}
	return h.JobsDone
}

// renderSweep builds the differential targets: Table 6 and Figure 1.
func renderSweep(t *testing.T, opt experiments.Options) string {
	t.Helper()
	tab, err := experiments.Table6(opt)
	if err != nil {
		t.Fatalf("Table6: %v", err)
	}
	fig, err := experiments.Figure1(opt)
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	return tab.String() + "\n" + fig.String()
}

var diffBase = experiments.Options{Insts: 50_000, Benchmarks: []string{"gcc", "groff"}}

// TestCrossProcessBytesIdentical is the tentpole's headline proof at full
// strength: Table 6 + Figure 1 render byte-identically from (a) the
// serial in-process sweep, (b) a 4-worker in-process pool, and (c) a
// sweep dispatched to 2 real spawned worker processes. Run under -race in
// CI.
func TestCrossProcessBytesIdentical(t *testing.T) {
	serial := diffBase
	serial.Workers = 1
	want := renderSweep(t, serial)

	pooled := diffBase
	pooled.Workers = 4
	if got := renderSweep(t, pooled); got != want {
		t.Error("Workers=4 in-process sweep renders differently from serial")
	}

	u1, _ := spawnWorker(t)
	u2, _ := spawnWorker(t)
	remote := diffBase
	remote.Dispatch = distsweep.New(distsweep.CoordinatorOptions{
		Workers:   []string{u1, u2},
		BatchSize: 3,
	})
	if got := renderSweep(t, remote); got != want {
		t.Error("2-process distributed sweep renders differently from serial")
	}
	// Both processes actually participated: the work did cross process
	// boundaries rather than collapsing onto one daemon.
	if jobsDone(t, u1) == 0 || jobsDone(t, u2) == 0 {
		t.Errorf("worker participation: %d + %d jobs; want both > 0",
			jobsDone(t, u1), jobsDone(t, u2))
	}
}

// TestCrossProcessKillWorkerMidSweep: killing one of two worker processes
// mid-sweep exercises eviction + re-dispatch, and the rendered bytes are
// unchanged.
func TestCrossProcessKillWorkerMidSweep(t *testing.T) {
	serial := diffBase
	serial.Workers = 1
	want := renderSweep(t, serial)

	u1, _ := spawnWorker(t)
	u2, cmd2 := spawnWorker(t)

	// Kill the second worker as soon as it has completed at least one job,
	// guaranteeing the fleet loses a participant mid-sweep.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for {
			if n := jobsDone(t, u2); n > 0 || n == -1 {
				_ = cmd2.Process.Kill()
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	remote := diffBase
	remote.Dispatch = distsweep.New(distsweep.CoordinatorOptions{
		Workers:     []string{u1, u2},
		BatchSize:   2,
		Retries:     4,
		BackoffBase: 5 * time.Millisecond,
		BackoffMax:  50 * time.Millisecond,
	})
	got := renderSweep(t, remote)
	<-killed
	if got != want {
		t.Error("sweep bytes changed after a worker was killed mid-sweep")
	}
	if len(remote.Dispatch.Alive()) == 2 {
		t.Log("note: killed worker was never evicted (sweep may have finished first); bytes still identical")
	}
}

// TestTelemetryNeutralDifferential is the fleet-telemetry headline proof:
// Table 6 + Figure 1 render byte-identically with telemetry enabled vs.
// disabled: the metrics registry and span tracer at Workers 1 and 4
// in-process, and those plus the sweep decision log against a real spawned
// worker process.
// Run under -race in CI.
func TestTelemetryNeutralDifferential(t *testing.T) {
	plain := diffBase
	plain.Workers = 1
	want := renderSweep(t, plain)

	for _, workers := range []int{1, 4} {
		loud := diffBase
		loud.Workers = workers
		loud.Metrics = obs.NewRegistry()
		loud.Spans = obs.NewSpanTracer()
		if got := renderSweep(t, loud); got != want {
			t.Errorf("Workers=%d sweep bytes change with telemetry enabled", workers)
		}
		if loud.Spans.Len() == 0 {
			t.Errorf("Workers=%d: telemetry was supposedly on but recorded no spans", workers)
		}
	}

	u1, _ := spawnWorker(t)
	remote := diffBase
	log := sweeplog.New(sweeplog.Options{})
	spans := obs.NewSpanTracer()
	remote.Dispatch = distsweep.New(distsweep.CoordinatorOptions{
		Workers:   []string{u1},
		BatchSize: 3,
		Metrics:   obs.NewRegistry(),
		Spans:     spans,
		Log:       log,
		Campaign:  "difftest",
	})
	if got := renderSweep(t, remote); got != want {
		t.Error("distributed sweep bytes change with telemetry enabled")
	}
	if len(logEvents(log, "dispatch")) == 0 {
		t.Error("decision log recorded no dispatches")
	}
	if fleet := remote.Dispatch.FleetSpans(); len(fleet) == 0 {
		t.Error("coordinator collected no fleet spans from the worker process")
	}
}

// logEvents filters a sweep log's flight recorder down to one event type.
func logEvents(l *sweeplog.Logger, ev string) []string {
	var out []string
	for _, line := range l.Recent() {
		if strings.Contains(line, `"ev":"`+ev+`"`) {
			out = append(out, line)
		}
	}
	return out
}

// TestFleetTracePerProcessTracks: with two spawned worker processes, the
// coordinator's fleet spans carry two distinct pids (neither ours), and the
// combined Perfetto trace renders one track per worker process.
func TestFleetTracePerProcessTracks(t *testing.T) {
	u1, _ := spawnWorker(t)
	u2, _ := spawnWorker(t)

	spans := obs.NewSpanTracer()
	remote := diffBase
	remote.Dispatch = distsweep.New(distsweep.CoordinatorOptions{
		Workers:   []string{u1, u2},
		BatchSize: 2,
		Spans:     spans,
	})
	renderSweep(t, remote)

	fleet := remote.Dispatch.FleetSpans()
	if len(fleet) != 2 {
		t.Fatalf("fleet processes = %d, want 2 (both daemons participated)", len(fleet))
	}
	self := os.Getpid()
	names := map[string]bool{}
	for _, p := range fleet {
		if names[p.Name] {
			t.Errorf("duplicate fleet track %q", p.Name)
		}
		names[p.Name] = true
		if strings.Contains(p.Name, "(pid "+strconv.Itoa(self)+")") {
			t.Errorf("fleet track %q carries the coordinator's own pid", p.Name)
		}
		if len(p.Spans) == 0 {
			t.Errorf("fleet track %q has no spans", p.Name)
		}
	}

	var buf bytes.Buffer
	if err := obs.WriteCombinedTrace(&buf, nil, spans.Spans(), fleet...); err != nil {
		t.Fatalf("WriteCombinedTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("combined fleet trace is not valid JSON: %v", err)
	}
	fleetPids := map[float64]bool{}
	for _, ev := range doc.TraceEvents {
		if pid, _ := ev["pid"].(float64); pid >= 3 {
			fleetPids[pid] = true
		}
	}
	if len(fleetPids) != 2 {
		t.Errorf("fleet pid tracks in trace = %v, want 2", fleetPids)
	}
}

// TestRunUsage covers the daemon's flag-error exit path.
func TestRunUsage(t *testing.T) {
	var sb strings.Builder
	if code := run([]string{"-no-such-flag"}, &sb); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
	if code := run([]string{"positional"}, &sb); code != 2 {
		t.Errorf("positional arg: exit %d, want 2", code)
	}
	// An unbindable address, so a daemon that accepted the flag would exit
	// 1 instead of serving.
	for _, n := range []string{"0", "-1"} {
		var out strings.Builder
		if code := run([]string{"-max-batch", n, "-addr", "256.256.256.256:99999"}, &out); code != 2 {
			t.Errorf("-max-batch %s: exit %d, want 2", n, code)
		}
		if !strings.Contains(out.String(), "usage: sweepworker") {
			t.Errorf("-max-batch %s printed %q, want the usage line", n, out.String())
		}
	}
	if code := run([]string{"-addr", "256.256.256.256:99999"}, &sb); code != 1 {
		t.Errorf("unbindable address: exit %d, want 1", code)
	}
	if !strings.Contains(sb.String(), "sweepworker:") {
		t.Error("error paths printed no diagnostics")
	}
}

// TestHelperSmoke double-checks the helper re-exec contract: a spawned
// worker answers /healthz with the current wire version.
func TestHelperSmoke(t *testing.T) {
	url, _ := spawnWorker(t)
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var h struct {
		Status  string `json:"status"`
		Version int    `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Status != "ok" || h.Version != distsweep.WireVersion {
		t.Errorf("healthz = %+v, want ok/version %d", h, distsweep.WireVersion)
	}
}
