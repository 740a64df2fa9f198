package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"specfetch/internal/metrics"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenEvents exercises every exporter branch: counter series, stall and
// window spans, instants, paired wrong-path miss/fill, an unpaired fill
// (truncated ring), paired and truncated bus transfers, prefetch spans, and
// both branch-resolve flavours.
func goldenEvents() []Event {
	r := NewEventRecorder(64)
	r.FetchCycle(0, 4)
	r.MissStart(0, 7, false)
	r.BusAcquire(0, 7, FillDemand)
	r.BusRelease(5)
	r.FillComplete(5, 7, FillDemand)
	r.Stall(0, 5, metrics.RTICache, 20)
	r.FetchCycle(5, 4)
	r.BranchResolve(6, 0x400, true, false)
	r.BranchResolve(7, 0x420, true, true)
	r.WindowStart(7, RedirectPHTMispredict, 11)
	r.MissStart(8, 9, true)
	r.BusAcquire(8, 9, FillWrongPath)
	r.BusRelease(13)
	r.FillComplete(13, 9, FillWrongPath)
	r.FillComplete(20, 30, FillWrongPath) // miss_start lost to the ring
	r.Stall(11, 13, metrics.WrongICache, 8)
	r.Redirect(11, RedirectPHTMispredict, 0x440)
	r.WindowEnd(13)
	r.Prefetch(14, 10, 19)
	r.BusAcquire(14, 10, FillPrefetch)
	r.BusRelease(19)
	r.BusAcquire(21, 11, FillDemand) // release never seen: no span
	return r.Events()
}

func TestChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := (CombinedTrace{Events: goldenEvents()}).Write(&buf); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "chrome_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run ChromeTraceGolden -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output diverged from %s:\n got: %s\nwant: %s\n(rerun with -update if intended)",
			path, buf.String(), want)
	}
}

// goldenSpans is a fixed host-span set: two workers, two sections, one
// span with allocations, one without a section label.
func goldenSpans() []HostSpan {
	return []HostSpan{
		{Name: "gcc/resume", Section: "table 6", Worker: 0,
			Start: 1 * time.Millisecond, Dur: 40 * time.Millisecond, Allocs: 1200},
		{Name: "groff/pessimistic", Section: "table 6", Worker: 1,
			Start: 2 * time.Millisecond, Dur: 35 * time.Millisecond, Allocs: 900},
		{Name: "gcc/row", Worker: 0,
			Start: 45 * time.Millisecond, Dur: 10 * time.Millisecond},
	}
}

func TestHostTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := (CombinedTrace{Spans: goldenSpans()}).Write(&buf); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "host_trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run HostTraceGolden -update` to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("host trace diverged from %s:\n got: %s\nwant: %s\n(rerun with -update if intended)",
			path, buf.String(), want)
	}
}

// TestCombinedTraceWellFormed renders a machine stream and host spans into
// one file and checks both processes are present with distinct pids and
// complete metadata — the "sweep next to the machine timeline" contract.
func TestCombinedTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCombinedTrace(&buf, goldenEvents(), goldenSpans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	pids := map[float64]bool{}
	var hostSpans, hostThreads int
	var procNames []string
	for _, ev := range doc.TraceEvents {
		pid, _ := ev["pid"].(float64)
		pids[pid] = true
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if ph == "M" && name == "process_name" {
			args, _ := ev["args"].(map[string]any)
			pn, _ := args["name"].(string)
			procNames = append(procNames, pn)
		}
		if pid == 2 {
			switch {
			case ph == "X":
				hostSpans++
			case ph == "M" && name == "thread_name":
				hostThreads++
			}
		}
	}
	if !pids[1] || !pids[2] {
		t.Errorf("pids seen = %v, want both 1 (machine) and 2 (host)", pids)
	}
	if len(procNames) != 2 || procNames[0] != "specfetch" || procNames[1] != "host" {
		t.Errorf("process names = %v, want [specfetch host]", procNames)
	}
	if hostSpans != len(goldenSpans()) {
		t.Errorf("host spans = %d, want %d", hostSpans, len(goldenSpans()))
	}
	if hostThreads != 2 {
		t.Errorf("host worker tracks = %d, want 2", hostThreads)
	}
}

// TestFleetTraceWellFormed renders machine, host pool, and two remote
// worker processes into one file and checks each fleet process gets its own
// pid track with its spans — the "one Perfetto file shows the whole fleet"
// contract.
func TestFleetTraceWellFormed(t *testing.T) {
	fleet := []ProcessSpans{
		{Name: "worker http://a (pid 101)", Spans: []HostSpan{
			{Name: "gcc/resume", Worker: 0, Start: 3 * time.Millisecond, Dur: 20 * time.Millisecond},
			{Name: "groff/resume", Worker: 0, Start: 24 * time.Millisecond, Dur: 18 * time.Millisecond},
		}},
		{Name: "worker http://b (pid 102)", Spans: []HostSpan{
			{Name: "gcc/pessimistic", Worker: 0, Start: 5 * time.Millisecond, Dur: 22 * time.Millisecond},
		}},
	}
	var buf bytes.Buffer
	if err := WriteCombinedTrace(&buf, goldenEvents(), goldenSpans(), fleet...); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	procByPid := map[int]string{}
	spansByPid := map[int]int{}
	for _, ev := range doc.TraceEvents {
		pid := int(ev["pid"].(float64))
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if ph == "M" && name == "process_name" {
			args, _ := ev["args"].(map[string]any)
			procByPid[pid], _ = args["name"].(string)
		}
		if ph == "X" && pid >= 3 {
			spansByPid[pid]++
		}
	}
	if procByPid[3] != fleet[0].Name || procByPid[4] != fleet[1].Name {
		t.Errorf("fleet process names = %q/%q, want %q/%q",
			procByPid[3], procByPid[4], fleet[0].Name, fleet[1].Name)
	}
	if spansByPid[3] != 2 || spansByPid[4] != 1 {
		t.Errorf("fleet span counts = %v, want pid3:2 pid4:1", spansByPid)
	}
}

// goldenWindows is a fixed two-window series for the counter tracks.
func goldenWindows() []WindowRecord {
	w0 := WindowRecord{Index: 0, StartInsts: 0, EndInsts: 1000, StartCycle: 0, EndCycle: 400,
		Accesses: 80, Misses: 4, BusTransfers: 4, BusBusy: 30}
	w0.Lost[metrics.RTICache] = 40
	w1 := WindowRecord{Index: 1, StartInsts: 1000, EndInsts: 2000, StartCycle: 400, EndCycle: 700,
		Accesses: 90, Misses: 6, BusTransfers: 6, BusBusy: 45}
	w1.Lost[metrics.RTICache] = 50
	w1.Lost[metrics.Branch] = 10
	return []WindowRecord{w0, w1}
}

// TestCounterTracksWellFormed renders counter tracks next to the machine
// stream and checks the track metadata, one sample per counter series per
// window at the window's closing cycle, and the component split on the
// stall counter. It also pins two neutrality properties: WriteCombinedTrace
// is byte-identical to a counter-free CombinedTrace (old call sites cannot
// drift), and a counters-only trace still names the machine process.
func TestCounterTracksWellFormed(t *testing.T) {
	var buf bytes.Buffer
	tr := CombinedTrace{Events: goldenEvents(), Counters: goldenWindows(), Spans: goldenSpans()}
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	counterName := ""
	samples := map[string][]float64{} // series name -> sample timestamps
	var stallArgs map[string]any
	for _, ev := range doc.TraceEvents {
		pid := int(ev["pid"].(float64))
		tid, _ := ev["tid"].(float64)
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		if pid != 1 || int(tid) != 6 {
			continue
		}
		if ph == "M" && name == "thread_name" {
			args, _ := ev["args"].(map[string]any)
			counterName, _ = args["name"].(string)
			continue
		}
		if ph != "C" {
			t.Errorf("non-counter event on the counter track: %v", ev)
			continue
		}
		ts, _ := ev["ts"].(float64)
		samples[name] = append(samples[name], ts)
		if name == "stall ispi" && stallArgs == nil {
			stallArgs, _ = ev["args"].(map[string]any)
		}
	}
	if counterName != "interval counters" {
		t.Errorf("counter track named %q, want %q", counterName, "interval counters")
	}
	wins := goldenWindows()
	for _, series := range []string{"ispi", "miss %", "bus occupancy %", "stall ispi"} {
		ts := samples[series]
		if len(ts) != len(wins) {
			t.Errorf("series %q has %d samples, want %d", series, len(ts), len(wins))
			continue
		}
		for i, w := range wins {
			if ts[i] != float64(w.EndCycle) {
				t.Errorf("series %q sample %d at ts %v, want window close %d", series, i, ts[i], w.EndCycle)
			}
		}
	}
	if len(stallArgs) != int(metrics.NumComponents) {
		t.Errorf("stall counter carries %d series, want one per component (%d): %v",
			len(stallArgs), metrics.NumComponents, stallArgs)
	}
	for _, c := range metrics.Components() {
		if _, ok := stallArgs[c.String()]; !ok {
			t.Errorf("stall counter missing component %q", c)
		}
	}

	var viaFunc, viaStruct bytes.Buffer
	if err := WriteCombinedTrace(&viaFunc, goldenEvents(), goldenSpans()); err != nil {
		t.Fatal(err)
	}
	if err := (CombinedTrace{Events: goldenEvents(), Spans: goldenSpans()}).Write(&viaStruct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaFunc.Bytes(), viaStruct.Bytes()) {
		t.Error("counter-free CombinedTrace diverges from WriteCombinedTrace bytes")
	}

	buf.Reset()
	if err := (CombinedTrace{Counters: goldenWindows()}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"name":"specfetch"`) {
		t.Error("counters-only trace does not name the machine process")
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("counters-only output is not valid JSON: %v", err)
	}
}

// TestChromeTraceWellFormed checks structural properties a viewer depends
// on, independent of the exact golden bytes.
func TestChromeTraceWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := (CombinedTrace{Events: goldenEvents()}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	var haveThreadNames, haveWPFill, haveXfer int
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		name, _ := ev["name"].(string)
		switch {
		case ph == "M" && name == "thread_name":
			haveThreadNames++
		case ph == "X" && name == "wp fill":
			haveWPFill++
		case ph == "X" && strings.HasPrefix(name, "xfer:"):
			haveXfer++
		}
		if ph == "X" {
			if dur, ok := ev["dur"].(float64); ok && dur < 0 {
				t.Errorf("negative span duration in %v", ev)
			}
		}
		if _, ok := ev["pid"]; !ok {
			t.Errorf("event without pid: %v", ev)
		}
	}
	if haveThreadNames != 5 {
		t.Errorf("thread_name metadata count = %d, want 5", haveThreadNames)
	}
	if haveWPFill != 2 {
		t.Errorf("wp fill spans = %d, want 2 (one paired, one truncated)", haveWPFill)
	}
	if haveXfer != 3 {
		t.Errorf("bus transfer spans = %d, want 3 (trailing unpaired acquire skipped)", haveXfer)
	}
}
