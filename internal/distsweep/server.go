package distsweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"

	"specfetch/internal/hosttime"
	"specfetch/internal/obs"
	"specfetch/internal/pool"
)

// Runner executes one validated job spec and returns the result plus the
// audit identity the run was verified against. The experiments package
// supplies the production runner (spec → bench → simulate); tests supply
// fakes. A Runner must be safe for concurrent use: the HTTP server invokes
// it from every lane of a batch at once, and from every in-flight batch.
type Runner func(spec JobSpec) (JobResult, error)

// ServerOptions configures a worker-side batch server.
type ServerOptions struct {
	// Runner executes each job; required.
	Runner Runner
	// Metrics, when non-nil, receives worker-side counters
	// (specfetch_worker_*), the sweep_batch_seconds histogram, the
	// jobs_failed counter, and the wire_version gauge, and is exposed at
	// /metrics on the handler.
	Metrics *obs.Registry
	// MaxBatchJobs rejects batches larger than this with HTTP 400;
	// 0 means the default of 4096.
	MaxBatchJobs int
}

// Server is the worker half of the protocol: it decodes batches, runs each
// job through the Runner, and returns job-ordered results. The jobs of one
// batch run on min(GOMAXPROCS, jobs) lanes of the shared pool (package
// pool, the in-process sweep executor's pool), handed out in job order;
// one worker process therefore uses every core its host gives it.
type Server struct {
	opt  ServerOptions
	mux  *http.ServeMux
	jobs atomic.Int64 // jobs completed since start, reported by /healthz
}

// NewServer builds a worker server around a Runner.
func NewServer(opt ServerOptions) *Server {
	if opt.Runner == nil {
		panic("distsweep: ServerOptions.Runner is required")
	}
	if opt.MaxBatchJobs <= 0 {
		opt.MaxBatchJobs = 4096
	}
	s := &Server{opt: opt, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	if opt.Metrics != nil {
		s.mux.Handle("GET /metrics", opt.Metrics.Handler())
		opt.Metrics.Gauge("wire_version",
			"Sweep wire protocol version this worker speaks.").Set(float64(WireVersion))
	}
	return s
}

// Handler returns the HTTP handler serving /healthz, /v1/run, and (with
// metrics configured) /metrics.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// Ignoring the write error: the peer hanging up mid-health-check needs
	// no recovery beyond dropping the connection.
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status":    "ok",
		"version":   WireVersion,
		"jobs_done": s.jobs.Load(),
	})
}

// fail writes an ErrorBody with the given status. 4xx means the batch (or
// a job in it) is permanently unrunnable — the coordinator must not burn
// retries on it; 5xx means this worker failed and another may succeed.
func (s *Server) fail(w http.ResponseWriter, status int, job int, format string, args ...any) {
	if s.opt.Metrics != nil {
		s.opt.Metrics.Counter("specfetch_worker_batch_errors_total",
			"Batches answered with an error status.").Inc()
		if job >= 0 {
			s.opt.Metrics.Counter("jobs_failed",
				"Sweep jobs that failed validation or execution on this worker.").Inc()
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: fmt.Sprintf(format, args...), Job: job})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var batch Batch
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&batch); err != nil {
		s.fail(w, http.StatusBadRequest, -1, "decoding batch: %v", err)
		return
	}
	if batch.Version != WireVersion {
		s.fail(w, http.StatusBadRequest, -1,
			"wire version %d, worker speaks %d", batch.Version, WireVersion)
		return
	}
	if len(batch.Jobs) == 0 || len(batch.Jobs) > s.opt.MaxBatchJobs {
		s.fail(w, http.StatusBadRequest, -1,
			"batch has %d jobs (limit %d)", len(batch.Jobs), s.opt.MaxBatchJobs)
		return
	}
	for i, job := range batch.Jobs {
		if err := job.Validate(); err != nil {
			s.fail(w, http.StatusUnprocessableEntity, i, "job %d: %v", i, err)
			return
		}
	}

	// pool.Run starts no job after a failure, reports the lowest-indexed
	// one, and re-raises a lane's panic here on the handler goroutine,
	// where net/http drops the connection. Each job writes its own result
	// and span slot, so both come back in job order whatever order the
	// jobs finish in.
	n := len(batch.Jobs)
	epoch := hosttime.Now()
	out := BatchResult{
		Version: WireVersion, ID: batch.ID,
		Pid:     os.Getpid(),
		Results: make([]JobResult, n),
		Spans:   make([]WireSpan, n),
	}
	err := pool.Run(runtime.GOMAXPROCS(0), n, func(lane, i int) error {
		job := batch.Jobs[i]
		start := hosttime.Now()
		res, err := s.runJob(job)
		if err != nil {
			return &jobError{job: i, err: err}
		}
		// Per-job timing on this process's monotonic clock, as an offset
		// from batch-execution start: the coordinator re-anchors these onto
		// its own axis for the combined fleet trace.
		out.Spans[i] = WireSpan{
			Job:     i,
			Lane:    lane,
			Name:    job.Profile.Name + "/" + job.Config.Policy.String(),
			StartUS: start.Sub(epoch).Microseconds(),
			DurUS:   hosttime.Since(start).Microseconds(),
		}
		out.Results[i] = res
		s.jobs.Add(1)
		if s.opt.Metrics != nil {
			s.opt.Metrics.Counter("specfetch_worker_jobs_total",
				"Sweep jobs completed by this worker.").Inc()
		}
		return nil
	})
	var jerr *jobError
	if errors.As(err, &jerr) {
		// A failing simulation is deterministic: every retry would fail
		// identically, so report it permanent (422) with the job index.
		s.fail(w, http.StatusUnprocessableEntity, jerr.job, "%v", jerr)
		return
	}
	exec := hosttime.Since(epoch)
	out.ExecUS = exec.Microseconds()
	if s.opt.Metrics != nil {
		s.opt.Metrics.Counter("specfetch_worker_batches_total",
			"Batches completed by this worker.").Inc()
		s.opt.Metrics.Histogram("sweep_batch_seconds",
			"Batch execution wall time on this worker.").Observe(exec.Seconds())
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		// Headers are already out; nothing more to tell the peer. The
		// coordinator sees a truncated body and treats it as a worker fault.
		return
	}
}

// jobError carries a failed job's index out of the lane pool.
type jobError struct {
	job int
	err error
}

func (e *jobError) Error() string { return fmt.Sprintf("job %d: %v", e.job, e.err) }

// runJob invokes the Runner, converting a sampled-audit stream-violation
// panic (*obs.AuditError) into an error so one poisoned job cannot take
// down the daemon.
func (s *Server) runJob(job JobSpec) (res JobResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			if aerr, ok := r.(*obs.AuditError); ok {
				err = aerr
				return
			}
			panic(r)
		}
	}()
	return s.opt.Runner(job)
}
