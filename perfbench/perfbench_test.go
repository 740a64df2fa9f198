package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"specfetch/internal/adaptive"
	"specfetch/internal/core"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// testSizes keeps every workload to a fraction of a second.
var testSizes = sizes{
	paperInsts:    4_000,
	intervalInsts: 30_000,
	fleetInsts:    8_000,
	fleetStreams:  1,
	refInsts:      20_000,
	refStreams:    1,
}

// digestsAt runs one plain pass of w and returns its digests as a stored
// digest file.
func digestsAt(t *testing.T, w workload, sz sizes, seed uint64) digestFile {
	t.Helper()
	inst, err := w.setup(sz, seed)
	if err != nil {
		t.Fatalf("%s: set-up: %v", w.name, err)
	}
	defer inst.close()
	out, err := inst.pass(passEnv{})
	if err != nil {
		t.Fatalf("%s: pass: %v", w.name, err)
	}
	s := storedOutputs{Seed: seed, Outputs: map[string]string{}}
	for _, o := range out.outputs {
		if o.err != nil {
			t.Fatalf("%s: %s: %v", w.name, o.name, o.err)
		}
		s.Outputs[o.name] = o.digest
	}
	return digestFile{w.name: s}
}

func mustWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, ok := lookupWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// TestContractMatchesBenchmarkFile keeps the metric and workload names the
// program reports equal to the ones BENCHMARK.json declares, within the
// contract's limits.
func TestContractMatchesBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var f struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metric                `json:"end_to_end"`
		PerLayer  []metric                `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, c := range []struct {
		file  []metric
		code  []metricSpec
		limit int
	}{{f.EndToEnd, endToEnd, 16}, {f.PerLayer, perLayer, 128}} {
		if len(c.code) > c.limit {
			t.Errorf("%d metrics, the contract allows %d", len(c.code), c.limit)
		}
		if len(c.file) != len(c.code) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program reports %d", len(c.file), len(c.code))
			continue
		}
		for i, m := range c.code {
			if !valid.MatchString(m.name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", m.name)
			}
			if seen[m.name] {
				t.Errorf("metric %q listed twice", m.name)
			}
			seen[m.name] = true
			if c.file[i] != (metric{m.name, m.unit}) {
				t.Errorf("BENCHMARK.json has %+v where the program reports %s in %s", c.file[i], m.name, m.unit)
			}
		}
	}
}

// TestStoredDigestsCoverEveryWorkload checks the committed digests name
// every workload, the seeded ones at the default seed.
func TestStoredDigestsCoverEveryWorkload(t *testing.T) {
	d, err := loadDigests(storedDigests)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		s, ok := d[w.name]
		if !ok || len(s.Outputs) == 0 {
			t.Errorf("no stored digests for %s", w.name)
			continue
		}
		if w.seeded && s.Seed != defaultSeed {
			t.Errorf("%s digests are stored at seed %d, want %d", w.name, s.Seed, defaultSeed)
		}
	}
}

// TestTamperedDigestFails checks that a stored digest that disagrees with
// the program's output counts the output's cells as failed.
func TestTamperedDigestFails(t *testing.T) {
	w := mustWorkload(t, "reference-audit")
	res, err := runPlain(w, testSizes, defaultSeed, time.Nanosecond, digestsAt(t, w, testSizes, defaultSeed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("untampered run: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}

	tampered := digestsAt(t, w, testSizes, defaultSeed)
	outs := tampered[w.name].Outputs
	flip := map[byte]string{'0': "1"}[outs["cell 0"][0]]
	if flip == "" {
		flip = "0"
	}
	outs["cell 0"] = flip + outs["cell 0"][1:]
	res, err = runPlain(w, testSizes, defaultSeed, time.Nanosecond, tampered, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("tampered digest: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	if frac := float64(res.Failed) / float64(res.Attempted); frac <= 0 || frac >= 1 {
		t.Errorf("fail_frac %v, want one cell's share", frac)
	}
}

// TestSameSeedSameDigests checks that the seeded workloads are a pure
// function of their seed.
func TestSameSeedSameDigests(t *testing.T) {
	for _, name := range []string{"fleet-cells", "reference-audit"} {
		w := mustWorkload(t, name)
		a, b := digestsAt(t, w, testSizes, 3), digestsAt(t, w, testSizes, 3)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs at seed 3 produced different digests", name)
		}
	}
}

// TestSeedsChangeGeneratedWorklists checks that the seed reaches the
// generated streams.
func TestSeedsChangeGeneratedWorklists(t *testing.T) {
	a, err := fleetSpecs(testSizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fleetSpecs(testSizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Error("fleet-cells work-lists at seeds 1 and 2 are identical")
	}
	c, err := refSpecs(testSizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := refSpecs(testSizes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(c, d) {
		t.Error("reference-audit work-lists at seeds 1 and 2 are identical")
	}
}

// TestCapturedCellsReplayExactly runs core.Run on every captured JobSpec of
// every workload and requires the workload's own Result for that cell, so
// the per-layer replay measures the program the end-to-end run measured.
func TestCapturedCellsReplayExactly(t *testing.T) {
	benches := map[synth.Profile]*synth.Bench{}
	for _, w := range workloads {
		inst, err := w.setup(testSizes, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		cells, _, _, err := capture(inst, nil)
		inst.close()
		if err != nil {
			t.Fatalf("%s: capture: %v", w.name, err)
		}
		if len(cells) == 0 {
			t.Fatalf("%s: captured no cells", w.name)
		}
		for _, c := range cells {
			b, ok := benches[c.spec.Profile]
			if !ok {
				if b, err = synth.Build(c.spec.Profile); err != nil {
					t.Fatal(err)
				}
				benches[c.spec.Profile] = b
			}
			recs, err := trace.Collect(b.NewReader(c.spec.Seed, traceLimit(c.spec.Insts)))
			if err != nil {
				t.Fatal(err)
			}
			cfg := c.spec.Config.ToConfig()
			cfg.MaxInsts = c.spec.Insts
			if cfg.Policy == core.Adaptive {
				if cfg.Chooser, err = adaptive.New(cfg.AdaptStrategy, cfg.AdaptSeed); err != nil {
					t.Fatal(err)
				}
			}
			pred, err := newPredictor(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Run(cfg, b.Image(), trace.NewSliceReader(recs), pred)
			if err != nil {
				t.Fatalf("%s: %s: %v", w.name, cellName(c.spec), err)
			}
			if !reflect.DeepEqual(got, c.res.Result) {
				t.Fatalf("%s: %s: replayed result differs from the workload's", w.name, cellName(c.spec))
			}
		}
	}
}

// TestTracedPassRendersSameBytes checks that attaching host spans and
// metrics leaves every output byte-identical.
func TestTracedPassRendersSameBytes(t *testing.T) {
	for _, w := range workloads {
		inst, err := w.setup(testSizes, defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := inst.pass(passEnv{})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := inst.pass(passEnv{spans: obs.NewSpanTracer(), metrics: obs.NewRegistry()})
		inst.close()
		if err != nil {
			t.Fatal(err)
		}
		if len(plain.outputs) == 0 || !reflect.DeepEqual(plain.outputs, traced.outputs) {
			t.Errorf("%s: traced pass produced different outputs", w.name)
		}
	}
}

// TestTracedRun checks that a traced run of every workload reports every
// per-layer metric, fails no check, and writes a Chrome trace.
func TestTracedRun(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		path := filepath.Join(dir, w.name+".json")
		res, err := runTraced(w, testSizes, defaultSeed, path, digestsAt(t, w, testSizes, defaultSeed))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: correct %v, %d of %d failed", w.name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		for _, name := range []string{"core.skipahead_ns_per_inst", "cache.ns_per_access", "distsweep.wire_mb"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, res.Metrics[name].Value)
			}
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &doc); err != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace file is not a Chrome trace with events (%v)", w.name, err)
		}
	}
}
