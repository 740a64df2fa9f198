package obs

import (
	"runtime/metrics"
	"sync"
	"time"

	"specfetch/internal/hosttime"
)

// Host-side span tracing: where the rest of this package observes the
// *simulated machine* in cycles, SpanTracer observes the *simulator* in
// host time. The shard executor wraps each unit of sweep work (one
// simulation cell, or one bench's non-simulation work) in a span recording
// its wall time, the worker that ran it, and the heap allocations it
// performed; paperbench counts the spans per builder for its stderr
// summary, and WriteHostTrace renders them as a workers-×-cells Perfetto
// timeline.
//
// All clock reads go through internal/hosttime (the determinism analyzer's
// single wall-clock exemption), and nothing recorded here ever feeds back
// into simulated state: sweep output bytes are identical with tracing on or
// off, which the differential harness in internal/experiments asserts.

// HostSpan is one completed host-side measurement.
type HostSpan struct {
	// Name identifies the work unit, e.g. "gcc/resume" for a simulation
	// cell or "gcc/row" for one bench's non-simulation work (a trace scan,
	// a profiling walk).
	Name string
	// Section is the label set by SetSection when the span ended, typically
	// the builder being run ("table 6").
	Section string
	// Worker is the 0-based pool worker index that ran the unit.
	Worker int
	// Start is the span's start offset from the tracer's creation.
	Start time.Duration
	// Dur is the span's host wall time.
	Dur time.Duration
	// Allocs is the number of heap objects allocated while the span was
	// open. The counter is process-global, so with several pool workers
	// running concurrently a span also counts its neighbours' allocations;
	// at Workers=1 the attribution is exact.
	Allocs uint64
}

// SpanTracer records completed host spans. A nil *SpanTracer is a valid
// no-op: Start returns an inert handle, so call sites need no guards. All
// methods are safe for concurrent use.
type SpanTracer struct {
	epoch hosttime.Instant

	mu      sync.Mutex
	section string
	spans   []HostSpan
}

// NewSpanTracer starts a tracer; span offsets are relative to this call.
func NewSpanTracer() *SpanTracer {
	return &SpanTracer{epoch: hosttime.Now()}
}

// Epoch returns the instant span offsets are measured from. The sweep
// coordinator uses it to re-anchor remote workers' span timings onto the
// same axis as local spans, so one combined trace shows the whole fleet.
// A nil tracer returns the zero Instant.
func (t *SpanTracer) Epoch() hosttime.Instant {
	if t == nil {
		return hosttime.Instant{}
	}
	return t.epoch
}

// SetSection labels spans ending from now on (until the next SetSection)
// with the given section name.
func (t *SpanTracer) SetSection(name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.section = name
	t.mu.Unlock()
}

// SpanHandle is one in-flight measurement; End completes and records it.
// The zero SpanHandle (from a nil tracer) is inert.
type SpanHandle struct {
	tr          *SpanTracer
	name        string
	worker      int
	start       hosttime.Instant
	startAllocs uint64
}

// Start opens a span for one unit of host work on the given worker.
func (t *SpanTracer) Start(name string, worker int) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{
		tr:          t,
		name:        name,
		worker:      worker,
		start:       hosttime.Now(),
		startAllocs: heapAllocs(),
	}
}

// End completes the span, records it with the tracer, and returns it.
// ok is false for the inert zero handle (nothing was recorded).
func (h SpanHandle) End() (span HostSpan, ok bool) {
	if h.tr == nil {
		return HostSpan{}, false
	}
	dur := hosttime.Since(h.start)
	allocs := heapAllocs() - h.startAllocs
	h.tr.mu.Lock()
	span = HostSpan{
		Name:    h.name,
		Section: h.tr.section,
		Worker:  h.worker,
		Start:   h.start.Sub(h.tr.epoch),
		Dur:     dur,
		Allocs:  allocs,
	}
	h.tr.spans = append(h.tr.spans, span)
	h.tr.mu.Unlock()
	return span, true
}

// Spans returns a copy of the completed spans, in completion order.
func (t *SpanTracer) Spans() []HostSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]HostSpan, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len returns the number of completed spans; paperbench snapshots it around
// each builder to attribute spans without copying.
func (t *SpanTracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// heapAllocs returns the process-cumulative count of heap objects
// allocated, from the runtime/metrics gauge (cheap: no stop-the-world).
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
