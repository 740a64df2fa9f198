package distsweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/obs"
)

// fakeResult derives a deterministic JobResult from a spec, standing in
// for a real simulation in protocol tests. A capturing spec gets a
// two-window series that tiles the run, and a spec that records misses
// gets the fixture's miss bitmap.
func fakeResult(spec JobSpec) JobResult {
	res := fixtureBatchResult().Results[0].Result
	if spec.Config.RecordMisses {
		res = missBitsResult().Result
	}
	res.Insts = spec.Insts
	res.Cycles = core.Cycles(int64(spec.Seed) + spec.Insts)
	res.Lost[0] = core.Slots(spec.Seed)
	jr := JobResult{Result: res, Audit: res.AuditFinal()}
	if spec.CaptureWindows {
		ws := obs.NewWindowSeries()
		ws.Sample(obs.Snapshot{Insts: res.Insts / 2, Cycle: res.Cycles / 2})
		ws.Sample(obs.Snapshot{Insts: res.Insts, Cycle: res.Cycles, Lost: res.Lost,
			RightPathAccesses: res.RightPathAccesses, RightPathMisses: res.RightPathMisses})
		jr.WindowSeries = ws.Records()
	}
	return jr
}

func fakeRunner(spec JobSpec) (JobResult, error) { return fakeResult(spec), nil }

// testJobs builds n valid window-capturing, miss-recording specs
// distinguished by seed.
func testJobs(n int) []JobSpec {
	jobs := make([]JobSpec, n)
	for i := range jobs {
		jobs[i] = fixtureBatch().Jobs[1]
		jobs[i].Seed = uint64(1000 + i)
		jobs[i].CaptureWindows = true
		jobs[i].Config.SampleInterval = 50_000
		jobs[i].Config.RecordMisses = true
	}
	return jobs
}

// wantResults is what any correct execution of testJobs must produce.
func wantResults(jobs []JobSpec) []JobResult {
	out := make([]JobResult, len(jobs))
	for i, j := range jobs {
		out[i] = fakeResult(j)
	}
	return out
}

// localRunner returns a LocalRunner computing fakeResult in-process and
// counting invocations.
func localRunner(calls *atomic.Int64) LocalRunner {
	return func(offset int, jobs []JobSpec) ([]JobResult, error) {
		calls.Add(1)
		out := make([]JobResult, len(jobs))
		for i, j := range jobs {
			out[i] = fakeResult(j)
		}
		return out, nil
	}
}

// newWorker spins up a real protocol server over fakeRunner. perJob > 0
// slows each job down, so tests can keep a worker busy long enough for a
// peer to participate.
func newWorker(t *testing.T, perJob time.Duration) *httptest.Server {
	t.Helper()
	runner := fakeRunner
	if perJob > 0 {
		runner = func(spec JobSpec) (JobResult, error) {
			time.Sleep(perJob)
			return fakeResult(spec), nil
		}
	}
	srv := httptest.NewServer(NewServer(ServerOptions{Runner: runner}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func fastOptions(workers ...string) CoordinatorOptions {
	return CoordinatorOptions{
		Workers:     workers,
		BatchSize:   3,
		Timeout:     2 * time.Second,
		Retries:     3,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		EvictAfter:  2,
	}
}

// TestCoordinatorHappyPath: every batch completes remotely; the local
// runner is never consulted; results land at their indexes.
func TestCoordinatorHappyPath(t *testing.T) {
	w1, w2 := newWorker(t, 0), newWorker(t, 0)
	reg := obs.NewRegistry()
	opt := fastOptions(w1.URL, w2.URL)
	opt.Metrics = reg
	c := New(opt)

	jobs := testJobs(10)
	var localCalls atomic.Int64
	var remoted atomic.Int64
	got, err := c.Run(jobs, localRunner(&localCalls), func(offset int, res []JobResult) {
		remoted.Add(int64(len(res)))
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Error("remote results differ from direct computation")
	}
	if localCalls.Load() != 0 {
		t.Errorf("local runner called %d times on the happy path", localCalls.Load())
	}
	if remoted.Load() != int64(len(jobs)) {
		t.Errorf("onRemote saw %d jobs, want %d", remoted.Load(), len(jobs))
	}
	if v := reg.Counter("specfetch_dispatch_jobs_total", "").Value(); v != int64(len(jobs)) {
		t.Errorf("dispatch jobs counter = %d, want %d", v, len(jobs))
	}
	if s, want := c.Status(), (Status{RemoteBatches: 4}); s != want {
		t.Errorf("Status = %+v, want %+v (10 jobs in batches of 3, no faults)", s, want)
	}
}

// flakyHandler wraps a healthy worker and misbehaves in a configurable way
// for the first `bad` requests.
type flakyHandler struct {
	inner http.Handler
	bad   atomic.Int64
	mode  string // "drop", "corrupt", "delay", "tamper", "windows", "missbits"
}

func (f *flakyHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/") || f.bad.Add(-1) < 0 {
		f.inner.ServeHTTP(w, r)
		return
	}
	switch f.mode {
	case "drop":
		w.WriteHeader(http.StatusInternalServerError)
	case "corrupt":
		_, _ = w.Write([]byte(`{"version":1,"id":`)) // truncated JSON
	case "delay":
		time.Sleep(500 * time.Millisecond)
		w.WriteHeader(http.StatusInternalServerError)
	case "tamper":
		rec := httptest.NewRecorder()
		f.inner.ServeHTTP(rec, r)
		var br BatchResult
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || len(br.Results) == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		// Claim fewer cycles than the audited run: the self-check identity
		// no longer holds.
		br.Results[0].Result.Cycles -= 17
		_ = json.NewEncoder(w).Encode(br)
	case "windows":
		rec := httptest.NewRecorder()
		f.inner.ServeHTTP(rec, r)
		var br BatchResult
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || len(br.Results) == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		// Add lost slots to the first window: the audit identity still
		// holds, but the series no longer sums to the run.
		br.Results[0].WindowSeries[0].Lost[0] += 9
		_ = json.NewEncoder(w).Encode(br)
	case "missbits":
		rec := httptest.NewRecorder()
		f.inner.ServeHTTP(rec, r)
		var br BatchResult
		if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || len(br.Results) == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		// Flip one bit of the miss bitmap: the audit identity and the
		// window series still hold, but the bitmap no longer counts the
		// run's misses.
		br.Results[0].Result.MissBits[0] ^= 1 << 1
		_ = json.NewEncoder(w).Encode(br)
	default:
		panic("unknown mode " + f.mode)
	}
}

// TestCoordinatorFaultInjection: a worker that drops, corrupts, delays, or
// tampers with batches (their results, window series or miss bitmaps)
// mid-sweep never changes the reduced results — the batches are retried on
// the healthy worker without any local fallback.
func TestCoordinatorFaultInjection(t *testing.T) {
	for _, mode := range []string{"drop", "corrupt", "delay", "tamper", "windows", "missbits"} {
		t.Run(mode, func(t *testing.T) {
			// The healthy worker is slowed so the flaky one keeps pulling
			// batches instead of watching the queue drain.
			healthy := newWorker(t, 5*time.Millisecond)
			flaky := &flakyHandler{inner: NewServer(ServerOptions{Runner: fakeRunner}).Handler(), mode: mode}
			flaky.bad.Store(1 << 30) // misbehave forever
			flakySrv := httptest.NewServer(flaky)
			t.Cleanup(flakySrv.Close)

			reg := obs.NewRegistry()
			opt := fastOptions(healthy.URL, flakySrv.URL)
			if mode == "delay" {
				opt.Timeout = 100 * time.Millisecond
			}
			opt.Metrics = reg
			c := New(opt)

			jobs := testJobs(18)
			var localCalls atomic.Int64
			got, err := c.Run(jobs, localRunner(&localCalls), nil)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if !reflect.DeepEqual(got, wantResults(jobs)) {
				t.Error("results differ with a faulty worker in the fleet")
			}
			if localCalls.Load() != 0 {
				t.Errorf("local fallback ran %d times; survivors should have absorbed the batches", localCalls.Load())
			}
			if v := reg.Counter("specfetch_dispatch_retries_total", "").Value(); v < 1 {
				t.Errorf("retries = %d, want >= 1", v)
			}
			if mode == "tamper" || mode == "windows" || mode == "missbits" {
				if v := reg.Counter("specfetch_dispatch_audit_rejects_total", "").Value(); v < 1 {
					t.Errorf("audit rejects = %d, want >= 1", v)
				}
			}
		})
	}
}

// TestCoordinatorEviction: a lone worker failing every batch is evicted
// after exactly EvictAfter consecutive failures, and the whole sweep
// completes through local fallback.
func TestCoordinatorEviction(t *testing.T) {
	flaky := &flakyHandler{inner: NewServer(ServerOptions{Runner: fakeRunner}).Handler(), mode: "drop"}
	flaky.bad.Store(1 << 30)
	srv := httptest.NewServer(flaky)
	t.Cleanup(srv.Close)

	reg := obs.NewRegistry()
	opt := fastOptions(srv.URL)
	opt.Metrics = reg
	c := New(opt)

	jobs := testJobs(12)
	var localCalls atomic.Int64
	got, err := c.Run(jobs, localRunner(&localCalls), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Error("results differ after eviction + local fallback")
	}
	if v := reg.Counter("specfetch_dispatch_evictions_total", "").Value(); v != 1 {
		t.Errorf("evictions = %d, want 1", v)
	}
	if v := reg.Counter("specfetch_dispatch_retries_total", "").Value(); v != int64(fastOptions().EvictAfter) {
		t.Errorf("retries = %d, want exactly EvictAfter (%d)", v, fastOptions().EvictAfter)
	}
	if localCalls.Load() == 0 {
		t.Error("no local fallback after the only worker was evicted")
	}
}

// TestCoordinatorAllWorkersGone: with every worker unreachable, the whole
// sweep falls back to local execution and still completes.
func TestCoordinatorAllWorkersGone(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close() // nothing listens here any more
	c := New(fastOptions(dead.URL))

	jobs := testJobs(7)
	var localCalls atomic.Int64
	got, err := c.Run(jobs, localRunner(&localCalls), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Error("local-fallback results differ")
	}
	if localCalls.Load() == 0 {
		t.Error("local runner never ran with a dead fleet")
	}
	if e := c.Status().Evictions; e != 1 {
		t.Errorf("evictions = %d, want the dead worker evicted once", e)
	}

	// A later sweep on the same coordinator skips remote entirely.
	localCalls.Store(0)
	if _, err := c.Run(testJobs(3), localRunner(&localCalls), nil); err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if localCalls.Load() == 0 {
		t.Error("second sweep did not fall back locally")
	}
}

// TestCoordinatorPermanentError: a job the worker rejects as unrunnable
// (4xx) is not retried remotely; the local runner decides the sweep's
// deterministic outcome.
func TestCoordinatorPermanentError(t *testing.T) {
	boom := fmt.Errorf("engine exploded deterministically")
	srv := httptest.NewServer(NewServer(ServerOptions{Runner: func(spec JobSpec) (JobResult, error) {
		return JobResult{}, boom
	}}).Handler())
	t.Cleanup(srv.Close)

	reg := obs.NewRegistry()
	opt := fastOptions(srv.URL)
	opt.Metrics = reg
	c := New(opt)

	jobs := testJobs(2)
	var localCalls atomic.Int64
	wantErr := fmt.Errorf("local says no")
	_, err := c.Run(jobs, func(offset int, js []JobSpec) ([]JobResult, error) {
		localCalls.Add(1)
		return nil, wantErr
	}, nil)
	if err == nil || !strings.Contains(err.Error(), "local says no") {
		t.Fatalf("err = %v, want the local runner's verdict", err)
	}
	if localCalls.Load() == 0 {
		t.Fatal("local runner never consulted for the permanent error")
	}
	// The worker stays alive — the batch was at fault, not the worker.
	if e := c.Status().Evictions; e != 0 {
		t.Errorf("healthy worker evicted %d times over a permanent job error", e)
	}
	if v := reg.Counter("specfetch_dispatch_retries_total", "").Value(); v != 0 {
		t.Errorf("permanent error burned %d retries", v)
	}
}

// TestCoordinatorVersionMismatch: a worker speaking a different wire
// version is rejected up front by its own 400, and the sweep still
// completes through local fallback.
func TestCoordinatorVersionMismatch(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(ErrorBody{Error: "wire version 99, worker speaks 1", Job: -1})
	}))
	t.Cleanup(srv.Close)
	c := New(fastOptions(srv.URL))

	jobs := testJobs(3)
	var localCalls atomic.Int64
	got, err := c.Run(jobs, localRunner(&localCalls), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Error("results differ after version-mismatch fallback")
	}
	if localCalls.Load() == 0 {
		t.Error("version mismatch did not fall back locally")
	}
}

// TestServerRejects covers the worker-side 400/422 surface.
func TestServerRejects(t *testing.T) {
	srv := newWorker(t, 0)
	post := func(body string) (int, ErrorBody) {
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer func() { _ = resp.Body.Close() }()
		var eb ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}

	if code, _ := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", code)
	}
	if code, _ := post(`{"version":99,"id":1,"jobs":[]}`); code != http.StatusBadRequest {
		t.Errorf("version mismatch: status %d, want 400", code)
	}
	if code, _ := post(`{"version":1,"id":1,"jobs":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", code)
	}
	bad := fixtureBatch()
	bad.Jobs[0].Pred = "perceptron"
	raw, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	code, eb := post(string(raw))
	if code != http.StatusUnprocessableEntity {
		t.Errorf("invalid job: status %d, want 422", code)
	}
	if eb.Job != 0 {
		t.Errorf("invalid job index = %d, want 0", eb.Job)
	}

	// A cache geometry whose line*assoc overflows int must come back as a
	// 422 for job 0: batch validation runs outside the per-job recover, so
	// a panic there would drop the connection instead.
	huge := cache.Config{SizeBytes: 8192, LineBytes: 1 << 32, Assoc: 1 << 32}
	for name, set := range map[string]func(*WireConfig){
		"icache": func(c *WireConfig) { c.ICache = huge },
		"l2":     func(c *WireConfig) { c.L2, c.L2Latency = &huge, 2 },
	} {
		bad := fixtureBatch()
		set(&bad.Jobs[0].Config)
		raw, err := json.Marshal(bad)
		if err != nil {
			t.Fatal(err)
		}
		code, eb := post(string(raw))
		if code != http.StatusUnprocessableEntity || eb.Job != 0 {
			t.Errorf("overflowing %s geometry: status %d job %d, want 422 job 0", name, code, eb.Job)
		}
	}

	// A budget whose stream limit overflows is a permanent error too, not a
	// zero-instruction result.
	bad = fixtureBatch()
	bad.Jobs[1].Insts = math.MaxInt64
	raw, err = json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	if code, eb := post(string(raw)); code != http.StatusUnprocessableEntity || eb.Job != 1 {
		t.Errorf("overflowing budget: status %d job %d, want 422 job 1", code, eb.Job)
	}
}

// counter reads one dispatch counter from a registry.
func counter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name, "").Value()
}

// TestCoordinatorLogCauses: each failure mode of a flaky worker is counted
// as a retry under its classified cause, and every retry under that cause
// alone, while every failed batch is requeued and completes remotely.
func TestCoordinatorLogCauses(t *testing.T) {
	wantCause := map[string]cause{
		"drop":     cause5xx,
		"corrupt":  causeCorrupt,
		"delay":    causeNetwork,
		"tamper":   causeTamper,
		"windows":  causeTamper,
		"missbits": causeTamper,
	}
	for _, mode := range []string{"drop", "corrupt", "delay", "tamper", "windows", "missbits"} {
		t.Run(mode, func(t *testing.T) {
			healthy := newWorker(t, 5*time.Millisecond)
			flaky := &flakyHandler{inner: NewServer(ServerOptions{Runner: fakeRunner}).Handler(), mode: mode}
			flaky.bad.Store(1 << 30)
			flakySrv := httptest.NewServer(flaky)
			t.Cleanup(flakySrv.Close)

			reg := obs.NewRegistry()
			opt := fastOptions(healthy.URL, flakySrv.URL)
			if mode == "delay" {
				opt.Timeout = 100 * time.Millisecond
			}
			opt.Metrics = reg
			c := New(opt)

			var localCalls atomic.Int64
			if _, err := c.Run(testJobs(12), localRunner(&localCalls), nil); err != nil {
				t.Fatalf("Run: %v", err)
			}

			s := c.Status()
			if s.Retries == 0 {
				t.Fatal("no retries counted")
			}
			for _, why := range []cause{causeNetwork, cause5xx, causeCorrupt, causeVersion, causeTamper} {
				want := int64(0)
				if why == wantCause[mode] {
					want = s.Retries
				}
				if v := counter(reg, "specfetch_dispatch_retry_"+string(why)+"_total"); v != want {
					t.Errorf("%s retries = %d, want %d of %d", why, v, want, s.Retries)
				}
			}
			// A failed attempt is either requeued or run locally, so with
			// no local batch every retry was a requeue to the healthy peer.
			if s.RemoteBatches == 0 || s.LocalBatches != 0 {
				t.Errorf("remote/local batches = %d/%d, want every batch remote", s.RemoteBatches, s.LocalBatches)
			}
		})
	}
}

// TestCoordinatorEvictionLog: the degraded-run counts are exact — a lone
// always-failing worker yields precisely EvictAfter retries (cause 5xx),
// each of them requeued, one eviction, and a no-workers local fallback for
// every batch.
func TestCoordinatorEvictionLog(t *testing.T) {
	flaky := &flakyHandler{inner: NewServer(ServerOptions{Runner: fakeRunner}).Handler(), mode: "drop"}
	flaky.bad.Store(1 << 30)
	srv := httptest.NewServer(flaky)
	t.Cleanup(srv.Close)

	reg := obs.NewRegistry()
	opt := fastOptions(srv.URL)
	opt.Metrics = reg
	c := New(opt)

	jobs := testJobs(12) // batch size 3 -> 4 batches
	var localCalls atomic.Int64
	if _, err := c.Run(jobs, localRunner(&localCalls), nil); err != nil {
		t.Fatalf("Run: %v", err)
	}

	s := c.Status()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want the one worker evicted once", s.Evictions)
	}
	if s.Retries != int64(opt.EvictAfter) {
		t.Errorf("retries = %d, want exactly EvictAfter (%d)", s.Retries, opt.EvictAfter)
	}
	if v := counter(reg, "specfetch_dispatch_retry_5xx_total"); v != s.Retries {
		t.Errorf("5xx retries = %d of %d, want all", v, s.Retries)
	}
	// A failed attempt is either requeued or sent local with its retries
	// exhausted, so requeues = retries - local_retries_exhausted.
	if requeues := s.Retries - counter(reg, "specfetch_dispatch_local_retries_exhausted_total"); requeues != int64(opt.EvictAfter) {
		t.Errorf("requeues = %d, want %d (each failed attempt requeued before eviction)", requeues, opt.EvictAfter)
	}
	if s.LocalBatches != 4 || s.RemoteBatches != 0 {
		t.Errorf("local/remote batches = %d/%d, want 4/0 (every batch local)", s.LocalBatches, s.RemoteBatches)
	}
	if v := counter(reg, "specfetch_dispatch_local_no_workers_total"); v != 4 {
		t.Errorf("no-workers local fallbacks = %d, want 4", v)
	}
}

// TestCoordinatorBackoff: a worker's k-th consecutive failure sits it out
// base·2^(k-1), capped at BackoffMax (also when the shift overflows), plus
// jitter in [0, base) fixed by the batch ID and attempt.
func TestCoordinatorBackoff(t *testing.T) {
	const base, max = 100 * time.Millisecond, 5 * time.Second
	c := New(CoordinatorOptions{Workers: []string{"http://unused"}, BackoffBase: base, BackoffMax: max})
	for _, tc := range []struct {
		fails int
		want  time.Duration // before jitter
	}{
		{0, base}, // a sit-out never goes below the first step
		{1, base},
		{2, 2 * base},
		{3, 4 * base},
		{4, 8 * base},
		{7, max},  // 6.4s: capped
		{56, max}, // base<<55 wraps negative
		{64, max}, // base<<63 wraps to zero
	} {
		w := &workerState{fails: tc.fails}
		jitters := map[time.Duration]bool{}
		for id := uint64(1); id <= 32; id++ {
			for attempts := 1; attempts <= 2; attempts++ {
				b := &batchWork{id: id, attempts: attempts}
				d := c.backoff(w, b)
				if j := d - tc.want; j < 0 || j >= base {
					t.Fatalf("fails=%d batch %d attempt %d: backoff %v, want %v plus jitter in [0, %v)",
						tc.fails, id, attempts, d, tc.want, base)
				} else {
					jitters[j] = true
				}
				if again := c.backoff(w, &batchWork{id: id, attempts: attempts}); again != d {
					t.Errorf("fails=%d batch %d attempt %d: backoff %v then %v, want the same", tc.fails, id, attempts, d, again)
				}
			}
		}
		if len(jitters) < 32 {
			t.Errorf("fails=%d: %d distinct jitters over 64 (batch, attempt) pairs, want them spread", tc.fails, len(jitters))
		}
	}
}

// TestCoordinatorFleetSpans: workers return per-job span timings, and the
// coordinator re-anchors them into one ProcessSpans per (URL, pid) that
// renders as its own pid track in the combined trace.
func TestCoordinatorFleetSpans(t *testing.T) {
	w1, w2 := newWorker(t, 5*time.Millisecond), newWorker(t, 5*time.Millisecond)
	spans := obs.NewSpanTracer()
	opt := fastOptions(w1.URL, w2.URL)
	opt.Spans = spans
	c := New(opt)

	jobs := testJobs(18)
	var localCalls atomic.Int64
	if _, err := c.Run(jobs, localRunner(&localCalls), nil); err != nil {
		t.Fatalf("Run: %v", err)
	}

	fleet := c.FleetSpans()
	if len(fleet) != 2 {
		t.Fatalf("fleet processes = %d, want 2 (both workers participated)", len(fleet))
	}
	total := 0
	wantPid := strconv.Itoa(os.Getpid()) // httptest workers share the test process
	for _, p := range fleet {
		if !strings.Contains(p.Name, "worker http://") || !strings.Contains(p.Name, "(pid "+wantPid+")") {
			t.Errorf("fleet process name = %q, want worker URL + pid", p.Name)
		}
		if len(p.Spans) == 0 {
			t.Errorf("fleet process %q has no spans", p.Name)
		}
		for _, s := range p.Spans {
			if s.Name == "" || s.Dur < 0 || s.Start < 0 {
				t.Errorf("malformed re-anchored span %+v in %q", s, p.Name)
			}
			// Re-anchored onto the dispatch axis: every worker span must sit
			// inside the window covered by some dispatch span.
			if s.Start > time.Hour {
				t.Errorf("span %+v far off the coordinator axis", s)
			}
		}
		total += len(p.Spans)
	}
	if total != len(jobs) {
		t.Errorf("fleet spans = %d, want one per job (%d)", total, len(jobs))
	}

	// The combined trace renders each fleet process as its own pid track.
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
	fleetProcs := map[float64]string{}
	for _, ev := range doc.TraceEvents {
		pid, _ := ev["pid"].(float64)
		if name, _ := ev["name"].(string); name == "process_name" && pid >= 3 {
			args, _ := ev["args"].(map[string]any)
			fleetProcs[pid], _ = args["name"].(string)
		}
	}
	if len(fleetProcs) != 2 {
		t.Errorf("fleet pid tracks = %v, want 2", fleetProcs)
	}
}

// postBatch runs one batch against a server and decodes the result.
func postBatch(t *testing.T, url string, batch Batch) BatchResult {
	t.Helper()
	raw, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch refused: status %d", resp.StatusCode)
	}
	var br BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return br
}

// TestServerHealthzAdvances: the /healthz JSON fields parse and jobs_done
// advances across two batches.
func TestServerHealthzAdvances(t *testing.T) {
	srv := newWorker(t, 0)
	health := func() (string, int, int64) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		defer func() { _ = resp.Body.Close() }()
		var h struct {
			Status   string `json:"status"`
			Version  int    `json:"version"`
			JobsDone int64  `json:"jobs_done"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return h.Status, h.Version, h.JobsDone
	}

	status, version, done := health()
	if status != "ok" || version != WireVersion || done != 0 {
		t.Fatalf("fresh healthz = %s/%d/%d, want ok/%d/0", status, version, done, WireVersion)
	}
	postBatch(t, srv.URL, Batch{Version: WireVersion, ID: 1, Jobs: testJobs(3)})
	if _, _, done := health(); done != 3 {
		t.Errorf("jobs_done after first batch = %d, want 3", done)
	}
	postBatch(t, srv.URL, Batch{Version: WireVersion, ID: 2, Jobs: testJobs(2)})
	if _, _, done := health(); done != 5 {
		t.Errorf("jobs_done after second batch = %d, want 5", done)
	}
}

// TestServerResultTelemetry: batch results carry the worker's pid, total
// execution time, and one span per job with sane offsets.
func TestServerResultTelemetry(t *testing.T) {
	srv := newWorker(t, time.Millisecond)
	jobs := testJobs(3)
	br := postBatch(t, srv.URL, Batch{Version: WireVersion, ID: 5, Jobs: jobs})
	if br.Pid != os.Getpid() {
		t.Errorf("result pid = %d, want %d", br.Pid, os.Getpid())
	}
	if br.ExecUS <= 0 {
		t.Errorf("exec_us = %d, want > 0", br.ExecUS)
	}
	if len(br.Spans) != len(jobs) {
		t.Fatalf("spans = %d, want one per job (%d)", len(br.Spans), len(jobs))
	}
	for i, s := range br.Spans {
		if s.Job != i {
			t.Errorf("span %d labels job %d", i, s.Job)
		}
		if s.Name == "" || s.StartUS < 0 || s.DurUS < 0 {
			t.Errorf("malformed span %+v", s)
		}
		if s.StartUS+s.DurUS > br.ExecUS+1000 {
			t.Errorf("span %+v overruns batch execution (%dus)", s, br.ExecUS)
		}
	}
}

// parseHistogram mirrors the obs-package exposition parser: cumulative
// bucket counts plus sum and count for one histogram in a registry dump.
func parseHistogram(t *testing.T, text, name string) (cum []int64, count int64) {
	t.Helper()
	sawType := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case line == "# TYPE "+name+" histogram":
			sawType = true
		case strings.HasPrefix(line, name+"_bucket{le=\""):
			_, countStr, ok := strings.Cut(line, "\"} ")
			if !ok {
				t.Fatalf("malformed bucket line %q", line)
			}
			n, err := strconv.ParseInt(countStr, 10, 64)
			if err != nil {
				t.Fatalf("bucket count in %q: %v", line, err)
			}
			cum = append(cum, n)
		case strings.HasPrefix(line, name+"_count "):
			v, err := strconv.ParseInt(strings.TrimPrefix(line, name+"_count "), 10, 64)
			if err != nil {
				t.Fatalf("count line %q: %v", line, err)
			}
			count = v
		}
	}
	if !sawType {
		t.Fatalf("no TYPE histogram line for %q in exposition:\n%s", name, text)
	}
	return cum, count
}

// TestWorkerMetricsExposition: the worker's /metrics carries the
// sweep_batch_seconds histogram, the jobs_failed counter, and the
// wire_version gauge, and the exposition round-trips through the
// Prometheus text parser.
func TestWorkerMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewServer(ServerOptions{Runner: fakeRunner, Metrics: reg}).Handler())
	t.Cleanup(srv.Close)

	// One good batch, then one with an invalid job (422), so every metric
	// has a non-trivial value.
	postBatch(t, srv.URL, Batch{Version: WireVersion, ID: 1, Jobs: testJobs(3)})
	bad := Batch{Version: WireVersion, ID: 2, Jobs: testJobs(1)}
	bad.Jobs[0].Insts = 0
	raw, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("invalid job: status %d, want 422", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	rawText, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read exposition: %v", err)
	}
	text := string(rawText)

	cum, count := parseHistogram(t, text, "sweep_batch_seconds")
	if count != 1 {
		t.Errorf("sweep_batch_seconds count = %d, want 1 completed batch", count)
	}
	if len(cum) == 0 || cum[len(cum)-1] != count {
		t.Errorf("sweep_batch_seconds +Inf bucket = %v, want cumulative count %d", cum, count)
	}
	if !strings.Contains(text, "\njobs_failed 1\n") {
		t.Errorf("exposition lacks jobs_failed 1:\n%s", text)
	}
	if !strings.Contains(text, fmt.Sprintf("\nwire_version %d\n", WireVersion)) {
		t.Errorf("exposition lacks wire_version %d:\n%s", WireVersion, text)
	}
}

// TestServerHealthz: the daemon self-reports protocol version and work
// done.
func TestServerHealthz(t *testing.T) {
	srv := newWorker(t, 0)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	defer func() { _ = resp.Body.Close() }()
	var h struct {
		Status   string `json:"status"`
		Version  int    `json:"version"`
		JobsDone int64  `json:"jobs_done"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Status != "ok" || h.Version != WireVersion {
		t.Errorf("healthz = %+v", h)
	}
}
