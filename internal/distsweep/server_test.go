package distsweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specfetch/internal/hosttime"
	"specfetch/internal/obs"
)

// laneTimeout bounds every wait in the lane tests: a pool that never runs
// two jobs at once fails the test instead of hanging it.
const laneTimeout = 10 * time.Second

// twoLanes runs the test at GOMAXPROCS 2, so every batch of two or more
// jobs gets two lanes.
func twoLanes(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// laneServer serves runner on a test server whose net/http error log is
// discarded (the panic tests make it log recovered panics).
func laneServer(t *testing.T, runner Runner) *httptest.Server {
	t.Helper()
	srv := httptest.NewUnstartedServer(NewServer(ServerOptions{Runner: runner}).Handler())
	srv.Config.ErrorLog = log.New(io.Discard, "", 0)
	srv.Start()
	t.Cleanup(srv.Close)
	return srv
}

// jobIndex recovers a testJobs spec's index from its seed.
func jobIndex(spec JobSpec) int { return int(spec.Seed) - 1000 }

// postRaw posts a batch and returns the status, the raw body and any
// transport error.
func postRaw(t *testing.T, url string, jobs []JobSpec) (int, []byte, error) {
	t.Helper()
	raw, err := json.Marshal(Batch{Version: WireVersion, ID: 7, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// wantFailure asserts a 422 naming job want.
func wantFailure(t *testing.T, url string, jobs []JobSpec, want int, msg string) {
	t.Helper()
	code, body, err := postRaw(t, url, jobs)
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	if code != http.StatusUnprocessableEntity || eb.Job != want || !strings.Contains(eb.Error, msg) {
		t.Errorf("status %d, body %+v; want 422 for job %d mentioning %q", code, eb, want, msg)
	}
}

// TestServerBatchRunsOnLanes: at GOMAXPROCS 2 the first two jobs of a
// batch are in flight at once (each waits for the other at a barrier),
// and the results and spans still come back in job order, each span
// naming the lane that ran it.
func TestServerBatchRunsOnLanes(t *testing.T) {
	twoLanes(t)
	var arrived atomic.Int64
	both := make(chan struct{})
	srv := laneServer(t, func(spec JobSpec) (JobResult, error) {
		if i := jobIndex(spec); i < 2 {
			if arrived.Add(1) == 2 {
				close(both)
			}
			select {
			case <-both:
			case <-time.After(laneTimeout):
				return JobResult{}, errors.New("jobs 0 and 1 never ran at once")
			}
		}
		return fakeResult(spec), nil
	})

	jobs := testJobs(6)
	br := postBatch(t, srv.URL, Batch{Version: WireVersion, ID: 3, Jobs: jobs})
	if !reflect.DeepEqual(br.Results, wantResults(jobs)) {
		t.Error("results are not in job order")
	}
	if len(br.Spans) != len(jobs) {
		t.Fatalf("spans = %d, want %d", len(br.Spans), len(jobs))
	}
	lanes := map[int]bool{}
	for i, s := range br.Spans {
		if s.Job != i || s.Name != jobs[i].Profile.Name+"/"+jobs[i].Config.Policy.String() {
			t.Errorf("span %d = %+v, want job %d's", i, s, i)
		}
		if s.Lane < 0 || s.Lane > 1 {
			t.Errorf("span %d ran on lane %d, want 0 or 1", i, s.Lane)
		}
		lanes[s.Lane] = true
	}
	if br.Spans[0].Lane == br.Spans[1].Lane {
		t.Errorf("jobs 0 and 1 ran at once but both name lane %d", br.Spans[0].Lane)
	}
	if len(lanes) != 2 {
		t.Errorf("lanes used = %v, want both", lanes)
	}
}

// TestServerOneLaneOmitsLane: at GOMAXPROCS 1 the batch runs on one lane,
// and its spans carry no lane field, so the response is what a worker
// without lanes sent.
func TestServerOneLaneOmitsLane(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	srv := newWorker(t, 0)
	code, body, err := postRaw(t, srv.URL, testJobs(3))
	if err != nil || code != http.StatusOK {
		t.Fatalf("post: status %d, %v", code, err)
	}
	if bytes.Contains(body, []byte(`"lane"`)) {
		t.Errorf("one-lane response carries a lane field: %s", body)
	}
}

// TestServerLowestFailureWins: a slow failure at job 1 beats a fast one at
// job 3. Job 1 holds its lane until job 3 has failed on the other, so the
// pool sees the later index fail first and must still report job 1.
func TestServerLowestFailureWins(t *testing.T) {
	twoLanes(t)
	late := make(chan struct{})
	var ran3 atomic.Bool
	srv := laneServer(t, func(spec JobSpec) (JobResult, error) {
		switch jobIndex(spec) {
		case 1:
			select {
			case <-late:
			case <-time.After(laneTimeout):
			}
			return JobResult{}, errors.New("slow failure")
		case 3:
			ran3.Store(true)
			close(late)
			return JobResult{}, errors.New("fast failure")
		}
		return fakeResult(spec), nil
	})
	wantFailure(t, srv.URL, testJobs(6), 1, "slow failure")
	if !ran3.Load() {
		t.Error("job 3 never ran beside job 1")
	}
}

// TestServerAuditPanicInLane: a sampled-audit violation (*obs.AuditError
// panic) in a lane other than the handler's is a 422 for that job, not a
// dropped connection.
func TestServerAuditPanicInLane(t *testing.T) {
	twoLanes(t)
	srv := laneServer(t, func(spec JobSpec) (JobResult, error) {
		if jobIndex(spec) == 2 {
			panic(&obs.AuditError{Cycle: 9, Check: "injected", Detail: "lane test"})
		}
		return fakeResult(spec), nil
	})
	wantFailure(t, srv.URL, testJobs(4), 2, "injected")
}

// TestServerPanicInLaneDropsConnection: any other panic in a lane reaches
// net/http on the handler goroutine, which drops the connection; the
// coordinator counts each such attempt as a network retry and the healthy
// worker absorbs the batches.
func TestServerPanicInLaneDropsConnection(t *testing.T) {
	twoLanes(t)
	bad := laneServer(t, func(spec JobSpec) (JobResult, error) {
		if jobIndex(spec)%3 == 1 {
			panic("engine bug")
		}
		return fakeResult(spec), nil
	})
	if code, _, err := postRaw(t, bad.URL, testJobs(3)); err == nil {
		t.Fatalf("a panicking job answered with status %d, want a dropped connection", code)
	}

	healthy := newWorker(t, 5*time.Millisecond)
	reg := obs.NewRegistry()
	opt := fastOptions(healthy.URL, bad.URL)
	opt.Metrics = reg
	c := New(opt)
	jobs := testJobs(12)
	var localCalls atomic.Int64
	got, err := c.Run(jobs, localRunner(&localCalls), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !reflect.DeepEqual(got, wantResults(jobs)) {
		t.Error("results differ with a panicking worker in the fleet")
	}
	s := c.Status()
	if s.Retries == 0 {
		t.Fatal("no retries counted")
	}
	if v := counter(reg, "specfetch_dispatch_retry_network_total"); v != s.Retries {
		t.Errorf("network retries = %d, want all %d", v, s.Retries)
	}
}

// TestServerHealthzMidBatch: /healthz jobs_done counts each job as it
// finishes, not at the end of its batch.
func TestServerHealthzMidBatch(t *testing.T) {
	twoLanes(t)
	release := make(chan struct{})
	srv := laneServer(t, func(spec JobSpec) (JobResult, error) {
		if jobIndex(spec) == 2 {
			select {
			case <-release:
			case <-time.After(laneTimeout):
				return JobResult{}, errors.New("never released")
			}
		}
		return fakeResult(spec), nil
	})
	done := func() int64 {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatalf("get: %v", err)
		}
		defer func() { _ = resp.Body.Close() }()
		var h struct {
			JobsDone int64 `json:"jobs_done"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return h.JobsDone
	}

	jobs := testJobs(3)
	type answer struct {
		code int
		err  error
	}
	ans := make(chan answer, 1)
	go func() {
		code, _, err := postRaw(t, srv.URL, jobs)
		ans <- answer{code, err}
	}()
	deadline := time.Now().Add(laneTimeout)
	for done() < 2 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("jobs_done never reached 2 while job 2 was running")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	if a := <-ans; a.err != nil || a.code != http.StatusOK {
		t.Fatalf("batch: status %d, %v", a.code, a.err)
	}
	if n := done(); n != 3 {
		t.Errorf("jobs_done after the batch = %d, want 3", n)
	}
}

// TestFleetSpansOneTrackPerLane: the coordinator draws a worker's spans on
// the tracks of the lanes that ran them, and draws a lane outside the
// batch (only a faulty worker sends one) on lane 0's.
func TestFleetSpansOneTrackPerLane(t *testing.T) {
	twoLanes(t)
	var arrived atomic.Int64
	both := make(chan struct{})
	srv := laneServer(t, func(spec JobSpec) (JobResult, error) {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(laneTimeout):
		}
		return fakeResult(spec), nil
	})
	opt := fastOptions(srv.URL)
	opt.Spans = obs.NewSpanTracer()
	c := New(opt)
	var localCalls atomic.Int64
	if _, err := c.Run(testJobs(3), localRunner(&localCalls), nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	fleet := c.FleetSpans()
	if len(fleet) != 1 {
		t.Fatalf("fleet processes = %d, want 1", len(fleet))
	}
	tracks := map[int]bool{}
	for _, s := range fleet[0].Spans {
		tracks[s.Worker] = true
	}
	if !tracks[0] || !tracks[1] || len(tracks) != 2 {
		t.Errorf("worker tracks = %v, want lanes 0 and 1", tracks)
	}

	c = New(opt)
	c.recordFleetSpans("http://faulty", &BatchResult{ID: 1, Pid: 1, ExecUS: 1, Spans: []WireSpan{
		{Job: 0, Lane: 1}, {Job: 1, Lane: 3}, {Job: 2, Lane: -1},
	}}, hosttime.Now(), time.Millisecond)
	var lanes []int
	for _, s := range c.FleetSpans()[0].Spans {
		lanes = append(lanes, s.Worker)
	}
	if !reflect.DeepEqual(lanes, []int{1, 0, 0}) {
		t.Errorf("tracks of lanes 1, 3, -1 in a 3-job batch = %v, want [1 0 0]", lanes)
	}
}
