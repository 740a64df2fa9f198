package distsweep

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"specfetch/internal/adaptive"
	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureProfile is a hand-written (not stock) profile so the golden bytes
// do not move when the calibrated stand-ins are retuned.
func fixtureProfile() synth.Profile {
	return synth.Profile{
		Name: "wiretest", Lang: synth.C,
		Description:     "hand-written fixture for the wire golden",
		Seed:            42,
		NumFuncs:        12,
		SegmentsPerFunc: [2]int{3, 7},
		MeanBlockLen:    5.5,
		LoopFrac:        0.25, MeanLoopTrip: 9, LoopBodyMul: 1.25,
		CallFrac: 0.2, IndirectCallFrac: 0.1, IndirectJumpFrac: 0.05,
		IndirectFanout: 4,
		CondBiasFrac:   0.5, PatternFrac: 0.2,
		BiasNear: 0.08, BiasTakenSide: 0.4,
		HardRange: [2]float64{0.3, 0.7},
		ZipfS:     1.1, CallDepth: 3,
		DriverCallSites: 8, DriverCallExecP: 0.6,
		PhaseSites: 4, PhaseIters: 50,
	}
}

func fixtureBatch() Batch {
	l2 := cache.Config{SizeBytes: 256 * 1024, LineBytes: 32, Assoc: 4}
	return Batch{
		Version:  WireVersion,
		ID:       7,
		Campaign: "c99-1",
		Attempt:  2,
		Jobs: []JobSpec{
			{
				Profile: fixtureProfile(),
				Config: WireConfig{core.Config{
					Policy: core.Pessimistic, FetchWidth: 4, MaxUnresolved: 4,
					MissPenalty: 20, DecodeLatency: 2, ResolveLatency: 4,
					ICache:           cache.Config{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 1, VictimLines: 4},
					NextLinePrefetch: true, TargetPrefetch: true, StreamDepth: 2,
					PipelinedMemory: true, L2: &l2, L2Latency: 6, MSHRs: 4,
					RASDepth: 8, FlushInterval: 100_000, SampleInterval: 10_000,
				}},
				Seed:        0x5eed,
				Insts:       250_000,
				Pred:        "local",
				AuditSample: 64,
			},
			{
				// Minimal job: zero-valued optional knobs must not appear in
				// the encoding (omitempty), so old workers keep accepting
				// specs that never used the new knobs.
				Profile: fixtureProfile(),
				Config: WireConfig{core.Config{
					Policy: core.Oracle, FetchWidth: 4, MaxUnresolved: 1,
					MissPenalty: 5, DecodeLatency: 2, ResolveLatency: 4,
					ICache: cache.Config{SizeBytes: 32 * 1024, LineBytes: 32, Assoc: 1},
				}},
				Seed:  0x5eed,
				Insts: 100_000,
			},
			{
				// Adaptive job: the meta-policy crosses the wire as a strategy
				// name, interval, and seed; the worker rebuilds the chooser.
				Profile: fixtureProfile(),
				Config: WireConfig{core.Config{
					Policy: core.Adaptive, FetchWidth: 4, MaxUnresolved: 4,
					MissPenalty: 20, DecodeLatency: 2, ResolveLatency: 4,
					ICache:        cache.Config{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 1},
					AdaptStrategy: "tournament", AdaptInterval: 10_000, AdaptSeed: 0xada9,
				}},
				Seed:  0x5eed,
				Insts: 150_000,
			},
		},
	}
}

// fullConfig sets every wire field of the config at a non-zero value, so its
// golden pins the key order of the whole config encoding, step_mode and the
// adapt fields included.
func fullConfig() WireConfig {
	l2 := cache.Config{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 2, VictimLines: 2}
	return WireConfig{core.Config{
		Policy: core.Adaptive, FetchWidth: 4, MaxUnresolved: 2,
		MissPenalty: 20, DecodeLatency: 2, ResolveLatency: 4,
		ICache:           cache.Config{SizeBytes: 8 * 1024, LineBytes: 32, Assoc: 1, VictimLines: 4},
		NextLinePrefetch: true, TargetPrefetch: true, StreamDepth: 3,
		PipelinedMemory: true, L2: &l2, L2Latency: 6, MSHRs: 2,
		RASDepth: 8, FlushInterval: 200_000, SampleInterval: 5_000,
		StepMode:      core.StepReference,
		AdaptStrategy: "tournament", AdaptInterval: 20_000, AdaptSeed: 0xada9,
	}}
}

func fixtureBatchResult() BatchResult {
	res := core.Result{
		Policy: core.Pessimistic,
		Insts:  250_000, Cycles: 91_234,
		Lost:              metrics.Breakdown{11, 22, 33, 44, 55, 66},
		Events:            metrics.BranchEvents{},
		Traffic:           metrics.Traffic{DemandFills: 123, WrongPathFills: 17, PrefetchFills: 9},
		RightPathAccesses: 70_000, RightPathMisses: 123,
		WrongPathAccesses: 1_500, WrongPathMisses: 17, WrongPathInsts: 4_321,
		CondBranches: 30_000, Branches: 42_000,
	}
	return BatchResult{
		Version: WireVersion,
		ID:      7,
		Pid:     4321,
		ExecUS:  52_000,
		Spans: []WireSpan{
			{Job: 0, Name: "wiretest/pessimistic", StartUS: 0, DurUS: 52_000},
		},
		Results: []JobResult{{Result: res, Audit: res.AuditFinal()}},
	}
}

// TestWireAdditive proves the v1 extension is additive: a pre-telemetry
// peer's encoding (no campaign/attempt, no pid/exec_us/spans) still decodes,
// with the new fields at their zero values — mixed fleets interoperate
// without a version bump.
func TestWireAdditive(t *testing.T) {
	oldBatch := []byte(`{"version":1,"id":9,"jobs":[]}`)
	var b Batch
	if err := json.Unmarshal(oldBatch, &b); err != nil {
		t.Fatalf("old batch encoding rejected: %v", err)
	}
	if b.Campaign != "" || b.Attempt != 0 {
		t.Errorf("old batch decoded with non-zero telemetry fields: %+v", b)
	}
	oldResult := []byte(`{"version":1,"id":9,"results":[]}`)
	var br BatchResult
	if err := json.Unmarshal(oldResult, &br); err != nil {
		t.Fatalf("old result encoding rejected: %v", err)
	}
	if br.Pid != 0 || br.ExecUS != 0 || br.Spans != nil {
		t.Errorf("old result decoded with non-zero telemetry fields: %+v", br)
	}

	// And a zero-telemetry Batch/BatchResult encodes without the new keys.
	raw, err := json.Marshal(Batch{Version: WireVersion, ID: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"campaign", "attempt"} {
		if bytes.Contains(raw, []byte(key)) {
			t.Errorf("zero-telemetry batch encodes %q: %s", key, raw)
		}
	}
	raw, err = json.Marshal(BatchResult{Version: WireVersion, ID: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"pid", "exec_us", "spans"} {
		if bytes.Contains(raw, []byte(key)) {
			t.Errorf("zero-telemetry result encodes %q: %s", key, raw)
		}
	}

	// The interval-analytics extension is additive the same way: a
	// pre-windows peer's JobSpec/JobResult still decodes with the new fields
	// zero, and specs/results that do not capture windows encode without the
	// new keys — so a mixed fleet only breaks if a new coordinator asks an
	// old worker to capture, which the coordinator rejects as a failed
	// self-check, not silent corruption.
	oldSpec := []byte(`{"profile":{},"config":{},"seed":1,"insts":100}`)
	var spec JobSpec
	if err := json.Unmarshal(oldSpec, &spec); err != nil {
		t.Fatalf("old job spec encoding rejected: %v", err)
	}
	if spec.CaptureWindows {
		t.Error("old job spec decoded with capture_windows set")
	}
	oldJR := []byte(`{"result":{},"audit":{}}`)
	var jr JobResult
	if err := json.Unmarshal(oldJR, &jr); err != nil {
		t.Fatalf("old job result encoding rejected: %v", err)
	}
	if jr.WindowSeries != nil {
		t.Error("old job result decoded with a window series")
	}
	raw, err = json.Marshal(JobSpec{Seed: 1, Insts: 100})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("capture_windows")) {
		t.Errorf("non-capturing spec encodes capture_windows: %s", raw)
	}
	raw, err = json.Marshal(JobResult{})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("window_series")) {
		t.Errorf("window-free result encodes window_series: %s", raw)
	}

	// The adaptive extension is additive the same way: a pre-adaptive peer's
	// WireConfig decodes with the adapt fields zero, and static-policy
	// configs encode without the new keys.
	oldCfg := []byte(`{"policy":2,"fetch_width":4,"max_unresolved":4,"miss_penalty":5,` +
		`"decode_latency":2,"resolve_latency":4,"icache":{}}`)
	var wc WireConfig
	if err := json.Unmarshal(oldCfg, &wc); err != nil {
		t.Fatalf("old wire config encoding rejected: %v", err)
	}
	if wc.AdaptStrategy != "" || wc.AdaptInterval != 0 || wc.AdaptSeed != 0 {
		t.Errorf("old wire config decoded with non-zero adapt fields: %+v", wc)
	}
	raw, err = json.Marshal(WireConfig{core.Config{Policy: core.Resume, FetchWidth: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"adapt_strategy", "adapt_interval", "adapt_seed"} {
		if bytes.Contains(raw, []byte(key)) {
			t.Errorf("static-policy config encodes %q: %s", key, raw)
		}
	}
}

// checkGolden marshals v indented and compares against the golden file,
// rewriting it under -update.
func checkGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: wire encoding drifted from golden.\nThis is a protocol change: bump WireVersion if old workers cannot run the new encoding.\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestWireGolden pins the versioned wire format: any field rename, type
// change, or tag change shows up as a golden diff.
func TestWireGolden(t *testing.T) {
	checkGolden(t, "batch.golden.json", fixtureBatch())
	checkGolden(t, "batchresult.golden.json", fixtureBatchResult())
	checkGolden(t, "config.golden.json", fullConfig())
}

// TestWireRoundTrip proves encode→decode is lossless for both directions
// of the protocol.
func TestWireRoundTrip(t *testing.T) {
	b := fixtureBatch()
	raw, err := json.Marshal(b)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Batch
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(b, back) {
		t.Errorf("batch did not round-trip:\n%+v\n%+v", b, back)
	}

	br := fixtureBatchResult()
	raw, err = json.Marshal(br)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var backR BatchResult
	if err := json.Unmarshal(raw, &backR); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(br, backR) {
		t.Errorf("batch result did not round-trip:\n%+v\n%+v", br, backR)
	}
}

// TestConfigRoundTrip proves WireConfig carries every serializable
// core.Config field both ways, through FromConfig/ToConfig and through JSON.
func TestConfigRoundTrip(t *testing.T) {
	l2 := cache.Config{SizeBytes: 128 * 1024, LineBytes: 32, Assoc: 2}
	cfg := core.DefaultConfig()
	cfg.Policy = core.Optimistic
	cfg.NextLinePrefetch = true
	cfg.TargetPrefetch = true
	cfg.StreamDepth = 3
	cfg.PipelinedMemory = true
	cfg.L2 = &l2
	cfg.L2Latency = 4
	cfg.MSHRs = 2
	cfg.RASDepth = 16
	cfg.FlushInterval = 50_000
	cfg.SampleInterval = 1_000
	cfg.StepMode = core.StepReference
	cfg.AdaptStrategy = "egreedy"
	cfg.AdaptInterval = 25_000
	cfg.AdaptSeed = 99

	w, err := FromConfig(cfg)
	if err != nil {
		t.Fatalf("FromConfig: %v", err)
	}
	if got := w.ToConfig(); !reflect.DeepEqual(got, cfg) {
		t.Errorf("config did not round-trip:\ngot  %+v\nwant %+v", got, cfg)
	}
	raw, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back WireConfig
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(back, w) {
		t.Errorf("wire config did not survive JSON:\ngot  %+v\nwant %+v", back, w)
	}

	// The budget and the arena stay behind: the budget travels as
	// JobSpec.Insts, and an arena belongs to one process.
	withState := cfg
	withState.MaxInsts = 1_000_000
	withState.Arena = core.NewArena()
	if w2, err := FromConfig(withState); err != nil || !reflect.DeepEqual(w2, w) {
		t.Errorf("FromConfig kept in-process state: %+v, %v", w2, err)
	}
}

// TestConfigWireTags: every core.Config field either crosses the wire under
// a json name or is on the in-process list, so a new knob cannot silently
// run remote cells at its zero value.
func TestConfigWireTags(t *testing.T) {
	inProcess := map[string]bool{
		"MaxInsts": true, "OnRightPathAccess": true, "Probe": true, "Chooser": true, "Arena": true,
	}
	typ := reflect.TypeOf(core.Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch {
		case inProcess[f.Name] && name != "-":
			t.Errorf("in-process field core.Config.%s must be tagged json:\"-\"", f.Name)
		case !inProcess[f.Name] && (name == "" || name == "-"):
			t.Errorf("core.Config.%s has no json name: give it a wire key or add it to the in-process list", f.Name)
		}
	}
}

// TestFromConfigRejectsInProcessState: cells carrying callbacks must be
// refused, not silently stripped.
func TestFromConfigRejectsInProcessState(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Probe = obs.NewEventRecorder(16)
	if _, err := FromConfig(cfg); err == nil {
		t.Error("FromConfig accepted a config with a Probe")
	}
	cfg = core.DefaultConfig()
	cfg.OnRightPathAccess = func(int64, uint64, bool) {}
	if _, err := FromConfig(cfg); err == nil {
		t.Error("FromConfig accepted a config with OnRightPathAccess")
	}
	cfg = core.DefaultConfig()
	cfg.Policy = core.Adaptive
	cfg.AdaptInterval = 10_000
	cfg.AdaptStrategy = "ucb"
	cfg.Chooser, _ = adaptive.New(cfg.AdaptStrategy, 0)
	if _, err := FromConfig(cfg); err == nil {
		t.Error("FromConfig accepted a config with a constructed Chooser")
	}
	cfg.Chooser = nil // strategy-by-name is the serializable form
	if _, err := FromConfig(cfg); err != nil {
		t.Errorf("FromConfig rejected a chooser-free adaptive config: %v", err)
	}
}

// TestJobSpecValidate covers the worker-side early rejects.
func TestJobSpecValidate(t *testing.T) {
	good := fixtureBatch().Jobs[0]
	if err := good.Validate(); err != nil {
		t.Fatalf("fixture spec invalid: %v", err)
	}
	bad := good
	bad.Insts = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero budget accepted")
	}
	bad = good
	bad.Pred = "perceptron"
	if err := bad.Validate(); err == nil {
		t.Error("unknown predictor kind accepted")
	}
	bad = good
	bad.Profile.NumFuncs = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid profile accepted")
	}
	bad = good
	bad.Config.FetchWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid config accepted")
	}
	bad = good
	bad.AuditSample = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative audit sample accepted")
	}
	bad = good
	bad.CaptureWindows = true
	bad.Config.SampleInterval = 0
	if err := bad.Validate(); err == nil {
		t.Error("capture_windows without a sample interval accepted")
	}
	good.CaptureWindows = true // fixture carries SampleInterval 10_000
	if err := good.Validate(); err != nil {
		t.Errorf("capturing spec with an interval rejected: %v", err)
	}

	adapt := fixtureBatch().Jobs[2]
	if err := adapt.Validate(); err != nil {
		t.Fatalf("adaptive fixture spec invalid: %v", err)
	}
	bad = adapt
	bad.Config.AdaptStrategy = "bandit"
	if err := bad.Validate(); err == nil {
		t.Error("unknown adapt strategy accepted")
	}
	bad = adapt
	bad.Config.AdaptStrategy = "phase:4611686018427387904" // once a makeslice panic
	if err := bad.Validate(); err == nil {
		t.Error("huge phase period accepted")
	}
	bad = adapt
	bad.Config.AdaptInterval = 0
	if err := bad.Validate(); err == nil {
		t.Error("adaptive spec without an interval accepted")
	}
	bad = good
	bad.Config.AdaptStrategy = "tournament" // on a non-adaptive policy
	if err := bad.Validate(); err == nil {
		t.Error("strategy on a static-policy spec accepted")
	}
}

// TestSelfConsistent: tampering with any audited counter, or with the window
// series of a capturing job, must break the identity the coordinator checks.
func TestSelfConsistent(t *testing.T) {
	spec := fixtureBatch().Jobs[0]
	jr := fixtureBatchResult().Results[0]
	if !jr.SelfConsistent(spec) {
		t.Fatal("fixture result not self-consistent")
	}
	bad := jr
	bad.Result.Cycles++
	if bad.SelfConsistent(spec) {
		t.Error("tampered Cycles not detected")
	}

	// A capturing job: the series must tile the run and sum to it.
	res := jr.Result
	ws := obs.NewWindowSeries()
	ws.Sample(obs.Snapshot{Insts: 100_000, Cycle: 40_000, RightPathAccesses: 30_000, RightPathMisses: 50})
	ws.Sample(obs.Snapshot{Insts: res.Insts, Cycle: res.Cycles, Lost: res.Lost,
		RightPathAccesses: res.RightPathAccesses, RightPathMisses: res.RightPathMisses})
	capture := spec
	capture.CaptureWindows = true
	jr.WindowSeries = ws.Records()
	if !jr.SelfConsistent(capture) {
		t.Fatal("tiling window series rejected")
	}
	if jr.SelfConsistent(spec) {
		t.Error("window series on a non-capturing job accepted")
	}
	for name, tamper := range map[string]func(ws []obs.WindowRecord) []obs.WindowRecord{
		"missing":     func([]obs.WindowRecord) []obs.WindowRecord { return nil },
		"truncated":   func(ws []obs.WindowRecord) []obs.WindowRecord { return ws[:1] },
		"late start":  func(ws []obs.WindowRecord) []obs.WindowRecord { ws[0].StartInsts = 1; return ws },
		"misnumbered": func(ws []obs.WindowRecord) []obs.WindowRecord { ws[1].Index = 5; return ws },
		"lost sum":    func(ws []obs.WindowRecord) []obs.WindowRecord { ws[1].Lost[2]--; return ws },
		"access sum":  func(ws []obs.WindowRecord) []obs.WindowRecord { ws[0].Accesses++; return ws },
		"miss sum":    func(ws []obs.WindowRecord) []obs.WindowRecord { ws[1].Misses++; return ws },
		"end cycle":   func(ws []obs.WindowRecord) []obs.WindowRecord { ws[1].EndCycle++; return ws },
	} {
		bad := jr
		bad.WindowSeries = tamper(append([]obs.WindowRecord(nil), jr.WindowSeries...))
		if bad.SelfConsistent(capture) {
			t.Errorf("%s window series accepted", name)
		}
	}
}
