package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"specfetch/internal/metrics"
)

// EventType discriminates recorded probe events.
type EventType uint8

const (
	EvFetchCycle EventType = iota
	EvMissStart
	EvFillComplete
	EvBusAcquire
	EvBusRelease
	EvBranchResolve
	EvRedirect
	EvPrefetch
	EvWindowStart
	EvWindowEnd
	EvStall

	NumEventTypes
)

var eventTypeNames = [NumEventTypes]string{
	EvFetchCycle:    "fetch_cycle",
	EvMissStart:     "miss_start",
	EvFillComplete:  "fill_complete",
	EvBusAcquire:    "bus_acquire",
	EvBusRelease:    "bus_release",
	EvBranchResolve: "branch_resolve",
	EvRedirect:      "redirect",
	EvPrefetch:      "prefetch",
	EvWindowStart:   "window_start",
	EvWindowEnd:     "window_end",
	EvStall:         "stall",
}

// String returns the snake_case name of the event type.
func (t EventType) String() string {
	if t < NumEventTypes {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("event(%d)", int(t))
}

// MarshalText renders the event type as its name, so Event JSON is
// self-describing.
func (t EventType) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText parses an event-type name.
func (t *EventType) UnmarshalText(b []byte) error {
	for i, n := range eventTypeNames {
		if n == string(b) {
			*t = EventType(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event type %q", b)
}

// Event is one probe callback flattened into a JSON-friendly record. Fields
// not used by a given event type are zero and omitted from JSON. Cy is the
// cycle the event refers to (which may be ahead of emission order: the
// engine reports scheduled completions eagerly).
type Event struct {
	Cy   int64     `json:"cy"`
	Type EventType `json:"type"`
	// Line is the cache line involved (miss/fill/bus/prefetch events).
	Line uint64 `json:"line,omitempty"`
	// PC is the branch address (branch_resolve) or resume address (redirect).
	PC uint64 `json:"pc,omitempty"`
	// Until is the end cycle of span events (stall, window_start, prefetch).
	Until int64 `json:"until,omitempty"`
	// Kind is the fill kind or redirect kind name.
	Kind string `json:"kind,omitempty"`
	// Comp is the penalty component name of a stall.
	Comp string `json:"comp,omitempty"`
	// Slots is the issue-slot cost of a stall.
	Slots int64 `json:"slots,omitempty"`
	// Issued is the instruction count of a fetch_cycle event.
	Issued int `json:"issued,omitempty"`
	// Taken / Mispredict describe a branch_resolve event.
	Taken      bool `json:"taken,omitempty"`
	Mispredict bool `json:"mispredict,omitempty"`
}

// EventRecorder is a bounded ring-buffer Probe: it records every callback
// as an Event, overwriting the oldest events once the buffer is full, so
// memory stays bounded on arbitrarily long runs. The zero value is not
// usable; call NewEventRecorder.
type EventRecorder struct {
	buf []Event
	n   uint64 // total events recorded (monotone)
}

// DefaultEventCapacity bounds recorder memory at roughly 100 MB-scale runs
// to a few MB of events.
const DefaultEventCapacity = 1 << 16

// NewEventRecorder builds a recorder holding the last `capacity` events
// (DefaultEventCapacity when capacity <= 0).
func NewEventRecorder(capacity int) *EventRecorder {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventRecorder{buf: make([]Event, capacity)}
}

// Cap returns the ring capacity.
func (r *EventRecorder) Cap() int { return len(r.buf) }

// Total returns how many events were recorded over the run, including ones
// the ring has since overwritten.
func (r *EventRecorder) Total() uint64 { return r.n }

// Dropped returns how many of the recorded events were overwritten.
func (r *EventRecorder) Dropped() uint64 {
	if c := uint64(len(r.buf)); r.n > c {
		return r.n - c
	}
	return 0
}

// Events returns the retained events, oldest first. The slice is a copy.
func (r *EventRecorder) Events() []Event {
	c := uint64(len(r.buf))
	if r.n <= c {
		return append([]Event(nil), r.buf[:r.n]...)
	}
	head := r.n % c
	out := make([]Event, 0, c)
	out = append(out, r.buf[head:]...)
	out = append(out, r.buf[:head]...)
	return out
}

// WriteJSONL writes the retained events as one JSON object per line,
// oldest first.
func (r *EventRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, ev := range r.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(b); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (r *EventRecorder) record(ev Event) {
	r.buf[r.n%uint64(len(r.buf))] = ev
	r.n++
}

func (r *EventRecorder) FetchCycle(cy metrics.Cycles, issued int) {
	r.record(Event{Cy: cy.Int64(), Type: EvFetchCycle, Issued: issued})
}

func (r *EventRecorder) MissStart(cy metrics.Cycles, line uint64, wrongPath bool) {
	kind := FillDemand
	if wrongPath {
		kind = FillWrongPath
	}
	r.record(Event{Cy: cy.Int64(), Type: EvMissStart, Line: line, Kind: kind.String()})
}

func (r *EventRecorder) FillComplete(cy metrics.Cycles, line uint64, kind FillKind) {
	r.record(Event{Cy: cy.Int64(), Type: EvFillComplete, Line: line, Kind: kind.String()})
}

func (r *EventRecorder) BusAcquire(cy metrics.Cycles, line uint64, kind FillKind) {
	r.record(Event{Cy: cy.Int64(), Type: EvBusAcquire, Line: line, Kind: kind.String()})
}

func (r *EventRecorder) BusRelease(cy metrics.Cycles) {
	r.record(Event{Cy: cy.Int64(), Type: EvBusRelease})
}

func (r *EventRecorder) BranchResolve(cy metrics.Cycles, pc uint64, taken, mispredicted bool) {
	r.record(Event{Cy: cy.Int64(), Type: EvBranchResolve, PC: pc, Taken: taken, Mispredict: mispredicted})
}

func (r *EventRecorder) Redirect(cy metrics.Cycles, kind RedirectKind, resumePC uint64) {
	r.record(Event{Cy: cy.Int64(), Type: EvRedirect, PC: resumePC, Kind: kind.String()})
}

func (r *EventRecorder) Prefetch(cy metrics.Cycles, line uint64, doneAt metrics.Cycles) {
	r.record(Event{Cy: cy.Int64(), Type: EvPrefetch, Line: line, Until: doneAt.Int64()})
}

func (r *EventRecorder) WindowStart(cy metrics.Cycles, kind RedirectKind, until metrics.Cycles) {
	r.record(Event{Cy: cy.Int64(), Type: EvWindowStart, Kind: kind.String(), Until: until.Int64()})
}

func (r *EventRecorder) WindowEnd(cy metrics.Cycles) {
	r.record(Event{Cy: cy.Int64(), Type: EvWindowEnd})
}

func (r *EventRecorder) Stall(cy, until metrics.Cycles, comp metrics.Component, slots metrics.Slots) {
	r.record(Event{Cy: cy.Int64(), Type: EvStall, Until: until.Int64(), Comp: comp.String(), Slots: slots.Int64()})
}
