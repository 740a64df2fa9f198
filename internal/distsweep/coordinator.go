package distsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specfetch/internal/hosttime"
	"specfetch/internal/obs"
	"specfetch/internal/xrand"
)

// CoordinatorOptions configures the dispatch side.
type CoordinatorOptions struct {
	// Workers are sweepworker base URLs ("http://host:8477"); required.
	Workers []string
	// BatchSize is the number of contiguous jobs per dispatch; 0 means 8.
	BatchSize int
	// Timeout bounds one batch attempt (connect + simulate + respond);
	// 0 means 5 minutes.
	Timeout time.Duration
	// Retries caps how many failed attempts a batch may accumulate across
	// workers before it falls back to local execution; 0 means 3.
	Retries int
	// BackoffBase/BackoffMax bound the exponential backoff a worker sits
	// out after a failure (base·2^(k-1) after its k-th consecutive failure,
	// capped at max, plus deterministic jitter in [0, base)). Zero values
	// mean 100ms and 5s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// EvictAfter evicts a worker after this many consecutive failures;
	// 0 means 2. Evicted workers take no further batches for the life of
	// the coordinator — their in-flight work is re-queued to survivors.
	EvictAfter int
	// Metrics, when non-nil, receives specfetch_dispatch_* counters
	// (retries and local fallbacks also by cause) and per-worker-slot
	// batch-latency histograms.
	Metrics *obs.Registry
	// Spans, when non-nil, wraps every remote batch attempt in a host span
	// on the dispatching worker slot's track, and collects the per-job span
	// timings workers return, re-anchored onto this tracer's axis
	// (FleetSpans).
	Spans *obs.SpanTracer
	// Client overrides the HTTP client (tests); nil builds a default.
	Client *http.Client
}

// LocalRunner executes jobs[offset : offset+len(jobs)] of the original
// work-list in-process and returns their results in job order. The
// coordinator invokes it for batches that exhausted their retries, hit a
// permanent (4xx) error, or had no worker left to run them.
type LocalRunner func(offset int, jobs []JobSpec) ([]JobResult, error)

// workerState is one remote worker's dispatch bookkeeping.
type workerState struct {
	url     string
	fails   int // consecutive failures; reset on success
	evicted bool
}

// fleetKey identifies one remote worker process: the same URL can be served
// by a restarted daemon with a new pid, which renders as a new trace track.
type fleetKey struct {
	url string
	pid int
}

// Coordinator fans batches out to workers and reassembles results in
// work-list order. It is safe for concurrent use: every Run carries its
// own queue state, so overlapping sweeps just interleave batches on the
// fleet. Eviction state persists across sweeps, so a dead worker is not
// re-probed by every table builder.
type Coordinator struct {
	opt    CoordinatorOptions
	client *http.Client

	mu      sync.Mutex
	workers []*workerState
	nextID  uint64

	fleetMu sync.Mutex
	fleet   map[fleetKey][]obs.HostSpan

	// Aggregate dispatch statistics across all Runs, for Status (atomics:
	// several Runs may be in flight).
	remoteBatches atomic.Int64
	localBatches  atomic.Int64
	retries       atomic.Int64
	evictions     atomic.Int64
}

// New builds a coordinator over the given workers.
func New(opt CoordinatorOptions) *Coordinator {
	if len(opt.Workers) == 0 {
		panic("distsweep: CoordinatorOptions.Workers is required")
	}
	if opt.BatchSize <= 0 {
		opt.BatchSize = 8
	}
	if opt.Timeout <= 0 {
		opt.Timeout = 5 * time.Minute
	}
	if opt.Retries <= 0 {
		opt.Retries = 3
	}
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = 100 * time.Millisecond
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = 5 * time.Second
	}
	if opt.EvictAfter <= 0 {
		opt.EvictAfter = 2
	}
	c := &Coordinator{opt: opt, client: opt.Client}
	if c.client == nil {
		c.client = &http.Client{}
	}
	for _, u := range opt.Workers {
		c.workers = append(c.workers, &workerState{url: u})
	}
	return c
}

func (c *Coordinator) count(name, help string) {
	if c.opt.Metrics != nil {
		c.opt.Metrics.Counter(name, help).Inc()
	}
}

// cause classifies why a batch attempt failed or left the remote path, and
// names the per-cause counters (specfetch_dispatch_retry_<cause>_total,
// specfetch_dispatch_local_<cause>_total). The retry causes blame the
// worker; the fallback causes explain why a batch ran in process.
type cause string

const (
	// causeNetwork: transport error or timeout — the worker never answered.
	causeNetwork cause = "network"
	// cause5xx: the worker answered with a 5xx status.
	cause5xx cause = "5xx"
	// causeCorrupt: undecodable body or protocol violation (wrong batch ID
	// or result count).
	causeCorrupt cause = "corrupt"
	// causeVersion: the result speaks a different wire version.
	causeVersion cause = "version"
	// causeTamper: a result does not rebuild its claimed audit identity or
	// window series.
	causeTamper cause = "tamper"
	// causePermanent: the worker proved the batch unrunnable (4xx); only
	// the local runner can produce the authoritative outcome.
	causePermanent cause = "permanent"
	// causeRetriesExhausted: the batch burned its remote retry budget.
	causeRetriesExhausted cause = "retries_exhausted"
	// causeNoWorkers: no live worker was left to run the batch.
	causeNoWorkers cause = "no_workers"
)

// dispatchError classifies a failed batch attempt for the retry taxonomy.
type dispatchError struct {
	cause cause
	err   error
}

func (e *dispatchError) Error() string { return e.err.Error() }
func (e *dispatchError) Unwrap() error { return e.err }

func classified(why cause, err error) error {
	return &dispatchError{cause: why, err: err}
}

// causeOf extracts the classification; an unclassified error (impossible
// via tryBatch, but conservative) blames the network.
func causeOf(err error) cause {
	var de *dispatchError
	if errors.As(err, &de) {
		return de.cause
	}
	return causeNetwork
}

// batchWork is one in-flight batch: a contiguous window of the work-list.
type batchWork struct {
	id       uint64
	offset   int
	jobs     []JobSpec
	attempts int
	// permanent marks a batch a worker refused with 4xx: remote retries
	// cannot help, only the local runner can produce the authoritative
	// (deterministic) outcome.
	permanent bool
}

// localCause explains why a batch is leaving the remote path.
func (b *batchWork) localCause(retries int) cause {
	switch {
	case b.permanent:
		return causePermanent
	case b.attempts > retries:
		return causeRetriesExhausted
	default:
		return causeNoWorkers
	}
}

// runState is the shared queue for one Run call. Workers pull from queue;
// a batch being attempted counts as inflight. A worker may exit only when
// the queue is empty and nothing is inflight (nothing can be re-queued).
type runState struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*batchWork
	inflight int
	local    []*batchWork
}

// Run executes the work-list: batches go to remote workers, results land
// at their job's index, and every batch that remote execution cannot
// complete is handed to local, so the returned slice is always fully
// populated (or an error is returned). onRemote, when non-nil, is invoked
// once per remotely-completed batch — possibly concurrently and out of
// order — so callers can stream progress; local-fallback cells report
// through the LocalRunner instead.
func (c *Coordinator) Run(jobs []JobSpec, local LocalRunner, onRemote func(offset int, results []JobResult)) ([]JobResult, error) {
	if local == nil {
		panic("distsweep: Run requires a LocalRunner")
	}
	out := make([]JobResult, len(jobs))
	if len(jobs) == 0 {
		return out, nil
	}

	st := &runState{}
	st.cond = sync.NewCond(&st.mu)
	c.mu.Lock()
	for off := 0; off < len(jobs); off += c.opt.BatchSize {
		end := off + c.opt.BatchSize
		if end > len(jobs) {
			end = len(jobs)
		}
		c.nextID++
		st.queue = append(st.queue, &batchWork{id: c.nextID, offset: off, jobs: jobs[off:end]})
	}
	alive := 0
	workers := make([]*workerState, len(c.workers))
	copy(workers, c.workers)
	for _, w := range workers {
		if !w.evicted {
			alive++
		}
	}
	c.mu.Unlock()

	if alive > 0 {
		var wg sync.WaitGroup
		for slot, w := range workers {
			if w.evicted {
				continue
			}
			wg.Add(1)
			go func(slot int, w *workerState) {
				defer wg.Done()
				c.dispatchLoop(slot, w, st, out, onRemote)
			}(slot, w)
		}
		wg.Wait()
	}

	// Whatever remote execution could not finish — exhausted retries,
	// permanent rejections, or everything if the fleet died — runs locally,
	// lowest offset first, so the first error surfaced is the
	// deterministic lowest-index one.
	st.mu.Lock()
	st.local = append(st.local, st.queue...)
	st.queue = nil
	locals := st.local
	st.mu.Unlock()
	sort.Slice(locals, func(i, j int) bool { return locals[i].offset < locals[j].offset })
	for _, b := range locals {
		why := b.localCause(c.opt.Retries)
		c.localBatches.Add(1)
		c.count("specfetch_dispatch_local_batches_total",
			"Batches that fell back to in-process execution.")
		c.count("specfetch_dispatch_local_"+string(why)+"_total",
			"Local-fallback batches, by cause ("+string(why)+").")
		res, err := local(b.offset, b.jobs)
		if err != nil {
			return nil, err
		}
		if len(res) != len(b.jobs) {
			return nil, fmt.Errorf("distsweep: local runner returned %d results for %d jobs", len(res), len(b.jobs))
		}
		copy(out[b.offset:], res)
	}
	return out, nil
}

// dispatchLoop is one worker slot's pull loop over the shared queue.
func (c *Coordinator) dispatchLoop(slot int, w *workerState, st *runState, out []JobResult, onRemote func(int, []JobResult)) {
	for {
		st.mu.Lock()
		for len(st.queue) == 0 && st.inflight > 0 {
			st.cond.Wait()
		}
		if len(st.queue) == 0 {
			st.mu.Unlock()
			return
		}
		b := st.queue[0]
		st.queue = st.queue[1:]
		st.inflight++
		st.mu.Unlock()

		err := c.tryBatch(slot, w, b, out)
		if err == nil {
			st.mu.Lock()
			st.inflight--
			st.cond.Broadcast()
			st.mu.Unlock()
			c.mu.Lock()
			w.fails = 0
			c.mu.Unlock()
			if onRemote != nil {
				onRemote(b.offset, out[b.offset:b.offset+len(b.jobs)])
			}
			continue
		}

		b.attempts++
		evict := false
		if !b.permanent {
			// The worker answered wrongly or not at all: blame it.
			why := causeOf(err)
			c.mu.Lock()
			w.fails++
			if w.fails >= c.opt.EvictAfter {
				w.evicted = true
				evict = true
			}
			c.mu.Unlock()
			c.retries.Add(1)
			c.count("specfetch_dispatch_retries_total",
				"Failed remote batch attempts (each is retried elsewhere or locally).")
			c.count("specfetch_dispatch_retry_"+string(why)+"_total",
				"Failed remote batch attempts, by cause ("+string(why)+").")
		}

		st.mu.Lock()
		st.inflight--
		if b.permanent || b.attempts > c.opt.Retries {
			st.local = append(st.local, b)
		} else {
			st.queue = append(st.queue, b)
		}
		st.cond.Broadcast()
		st.mu.Unlock()

		if evict {
			c.evictions.Add(1)
			c.count("specfetch_dispatch_evictions_total",
				"Workers evicted after consecutive failures.")
			return
		}
		if !b.permanent {
			time.Sleep(c.backoff(w, b))
		}
	}
}

// backoff computes the post-failure sit-out: base·2^(fails-1) capped at
// max, plus deterministic jitter derived from the batch identity (xrand,
// not math/rand: reruns back off identically, which makes scheduling
// pathologies reproducible).
func (c *Coordinator) backoff(w *workerState, b *batchWork) time.Duration {
	c.mu.Lock()
	fails := w.fails
	c.mu.Unlock()
	if fails < 1 {
		fails = 1
	}
	d := c.opt.BackoffBase << (fails - 1)
	if d > c.opt.BackoffMax || d <= 0 {
		d = c.opt.BackoffMax
	}
	rng := xrand.New(b.id*2654435761 + uint64(b.attempts))
	return d + time.Duration(rng.Uint64n(uint64(c.opt.BackoffBase)))
}

// permanentErr marks a batch outcome remote retries cannot change.
func permanentErr(b *batchWork, err error) error {
	b.permanent = true
	return classified(causePermanent, err)
}

// tryBatch POSTs one batch to one worker and, on success, writes the
// results into their slots. Any protocol violation — wrong version, wrong
// ID, wrong count, or a result whose counters do not rebuild the audit
// identity the worker claims to have verified — is a worker fault,
// classified for the retry taxonomy.
func (c *Coordinator) tryBatch(slot int, w *workerState, b *batchWork, out []JobResult) error {
	sp := c.opt.Spans.Start(fmt.Sprintf("dispatch/batch%d", b.id), slot)
	defer func() {
		if span, ok := sp.End(); ok && c.opt.Metrics != nil {
			c.opt.Metrics.Histogram("specfetch_dispatch_batch_seconds",
				"Wall time per remote batch attempt (including failures).").
				Observe(span.Dur.Seconds())
			c.opt.Metrics.Histogram(fmt.Sprintf("specfetch_dispatch_batch_seconds_worker%d", slot),
				"Wall time per remote batch attempt on this worker slot.").
				Observe(span.Dur.Seconds())
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), c.opt.Timeout)
	defer cancel()
	body, err := json.Marshal(Batch{Version: WireVersion, ID: b.id, Jobs: b.jobs})
	if err != nil {
		return permanentErr(b, fmt.Errorf("encoding batch: %w", err))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return permanentErr(b, fmt.Errorf("building request: %w", err))
	}
	req.Header.Set("Content-Type", "application/json")

	t0 := hosttime.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return classified(causeNetwork, fmt.Errorf("posting batch: %w", err))
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		var eb ErrorBody
		msg := resp.Status
		if derr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); derr == nil && eb.Error != "" {
			msg = eb.Error
		}
		err := fmt.Errorf("worker %s: %s", w.url, msg)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			// The worker says the batch itself is unrunnable. The local
			// runner is the authority on what error the sweep reports.
			return permanentErr(b, err)
		}
		return classified(cause5xx, err)
	}

	var br BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return classified(causeCorrupt, fmt.Errorf("decoding result: %w", err))
	}
	rtt := hosttime.Since(t0)
	if br.Version != WireVersion {
		return classified(causeVersion,
			fmt.Errorf("result speaks wire version %d, want %d", br.Version, WireVersion))
	}
	if br.ID != b.id {
		return classified(causeCorrupt,
			fmt.Errorf("result echoes batch %d, want %d", br.ID, b.id))
	}
	if len(br.Results) != len(b.jobs) {
		return classified(causeCorrupt,
			fmt.Errorf("result has %d entries for %d jobs", len(br.Results), len(b.jobs)))
	}
	for i, r := range br.Results {
		if !r.SelfConsistent(b.jobs[i]) {
			c.count("specfetch_dispatch_audit_rejects_total",
				"Batch results rejected because a result does not rebuild its claimed audit identity or window series.")
			return classified(causeTamper,
				fmt.Errorf("job %d result fails its self-check (tampered or corrupt)", b.offset+i))
		}
	}
	copy(out[b.offset:], br.Results)
	c.remoteBatches.Add(1)
	c.count("specfetch_dispatch_batches_total", "Batches completed remotely.")
	if c.opt.Metrics != nil {
		c.opt.Metrics.Counter("specfetch_dispatch_jobs_total", "Sweep jobs completed remotely.").
			Add(int64(len(b.jobs)))
	}
	c.recordFleetSpans(w.url, &br, t0, rtt)
	return nil
}

// recordFleetSpans re-anchors a worker's per-job span timings onto the
// coordinator's span-tracer axis. The worker reports offsets on its own
// monotonic clock; the only shared observation is the dispatch round-trip,
// so batch-execution start is placed at the round-trip midpoint left over
// after execution time — dispatch start + (rtt − exec)/2, the symmetric
// network-delay assumption NTP makes — and clamped to the dispatch window.
func (c *Coordinator) recordFleetSpans(url string, br *BatchResult, t0 hosttime.Instant, rtt time.Duration) {
	if c.opt.Spans == nil || br.Pid == 0 || len(br.Spans) == 0 {
		return
	}
	base := t0.Sub(c.opt.Spans.Epoch())
	slack := (rtt - time.Duration(br.ExecUS)*time.Microsecond) / 2
	if slack < 0 {
		slack = 0
	}
	anchor := base + slack
	spans := make([]obs.HostSpan, 0, len(br.Spans))
	for _, ws := range br.Spans {
		// A batch of n jobs runs on at most n lanes; a lane outside that
		// (only a faulty worker sends one) is drawn on lane 0's track
		// rather than sizing the trace's track list by it.
		lane := ws.Lane
		if lane < 0 || lane >= len(br.Spans) {
			lane = 0
		}
		spans = append(spans, obs.HostSpan{
			Name:    ws.Name,
			Section: "batch " + strconv.FormatUint(br.ID, 10),
			Worker:  lane, // one track per worker lane
			Start:   anchor + time.Duration(ws.StartUS)*time.Microsecond,
			Dur:     time.Duration(ws.DurUS) * time.Microsecond,
		})
	}
	k := fleetKey{url: url, pid: br.Pid}
	c.fleetMu.Lock()
	if c.fleet == nil {
		c.fleet = make(map[fleetKey][]obs.HostSpan)
	}
	c.fleet[k] = append(c.fleet[k], spans...)
	c.fleetMu.Unlock()
}

// FleetSpans returns the re-anchored span timings of every remote worker
// process that completed a batch, one ProcessSpans per (URL, pid), sorted
// by URL then pid. Pass them to obs.WriteCombinedTrace to render the whole
// fleet — local pool, every remote worker, and the scheduling gaps between
// them — in one Perfetto file.
func (c *Coordinator) FleetSpans() []obs.ProcessSpans {
	if c == nil {
		return nil
	}
	c.fleetMu.Lock()
	defer c.fleetMu.Unlock()
	keys := make([]fleetKey, 0, len(c.fleet))
	for k := range c.fleet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].url != keys[j].url {
			return keys[i].url < keys[j].url
		}
		return keys[i].pid < keys[j].pid
	})
	out := make([]obs.ProcessSpans, 0, len(keys))
	for _, k := range keys {
		out = append(out, obs.ProcessSpans{
			Name:  fmt.Sprintf("worker %s (pid %d)", k.url, k.pid),
			Spans: append([]obs.HostSpan(nil), c.fleet[k]...),
		})
	}
	return out
}

// Status is a snapshot of the coordinator's aggregate dispatch counts,
// across all Runs it has served.
type Status struct {
	RemoteBatches int64
	LocalBatches  int64
	Retries       int64
	Evictions     int64
}

// Status snapshots the coordinator. A nil coordinator returns the zero
// Status.
func (c *Coordinator) Status() Status {
	if c == nil {
		return Status{}
	}
	return Status{
		RemoteBatches: c.remoteBatches.Load(),
		LocalBatches:  c.localBatches.Load(),
		Retries:       c.retries.Load(),
		Evictions:     c.evictions.Load(),
	}
}
