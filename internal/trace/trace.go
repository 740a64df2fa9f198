// Package trace defines the dynamic instruction trace model consumed by the
// fetch-policy simulator, along with text and binary codecs so traces can be
// stored, inspected, and replayed.
//
// A trace is a sequence of basic-block records on the *correct* execution
// path, exactly the information an ATOM-style instrumentation run produces:
// where a block starts, how many instructions it holds, and what its
// terminating control transfer did. Wrong-path instructions are never in a
// trace; the simulator reconstructs wrong paths from the static program
// image.
package trace

import (
	"errors"
	"fmt"
	"io"

	"specfetch/internal/isa"
)

// Record is one dynamic basic block: N sequential instructions starting at
// Start. If BrKind is not Plain, the last of those N instructions is a
// control transfer of that kind with the given dynamic outcome; otherwise
// the block simply ran into the record-length cap and execution continues at
// Start + 4*N.
type Record struct {
	// Start is the address of the first instruction of the block.
	Start isa.Addr
	// N is the number of instructions in the block, including the
	// terminating branch when BrKind != Plain. N >= 1.
	N int
	// BrKind classifies the terminating instruction.
	BrKind isa.Kind
	// Taken reports the dynamic direction for conditional branches; it is
	// true for all executed unconditional transfers.
	Taken bool
	// Target is the dynamic destination when Taken (for returns and
	// indirect jumps this is the only record of the destination).
	Target isa.Addr
}

// BranchPC returns the address of the terminating branch. It is only
// meaningful when BrKind != Plain.
func (r Record) BranchPC() isa.Addr { return r.Start.Plus(r.N - 1) }

// NextPC returns the address execution continues at after this record.
func (r Record) NextPC() isa.Addr {
	if r.BrKind != isa.Plain && r.Taken {
		return r.Target
	}
	return r.Start.Plus(r.N)
}

// Validate checks internal consistency.
func (r Record) Validate() error {
	switch {
	case r.N < 1:
		return fmt.Errorf("trace: record at %s has non-positive length %d", r.Start, r.N)
	case uint64(r.Start)%isa.InstBytes != 0:
		return fmt.Errorf("trace: record start %s misaligned", r.Start)
	case r.BrKind == isa.Plain && r.Taken:
		return fmt.Errorf("trace: plain record at %s marked taken", r.Start)
	case r.BrKind.IsUnconditional() && !r.Taken:
		return fmt.Errorf("trace: unconditional %s at %s marked not taken", r.BrKind, r.BranchPC())
	case r.Taken && uint64(r.Target)%isa.InstBytes != 0:
		return fmt.Errorf("trace: record at %s has misaligned target %s", r.Start, r.Target)
	}
	return nil
}

// Reader yields trace records until io.EOF.
type Reader interface {
	// Next returns the next record, or io.EOF after the last one.
	Next() (Record, error)
}

// Writer persists trace records.
type Writer interface {
	Write(Record) error
}

// PreValidated is an optional Reader refinement: a reader whose
// PreValidatedTrace method reports true promises that every record it will
// ever yield passes Record.Validate, letting consumers that validate records
// one at a time (the simulation engine's loadRecord) skip the re-check.
// Replay cursors over pre-checked record slices implement it.
type PreValidated interface {
	PreValidatedTrace() bool
}

// SliceReader replays an in-memory record slice. It is the reader used by
// tests and by generators that materialize traces.
type SliceReader struct {
	recs []Record
	pos  int
}

// NewSliceReader wraps recs; the slice is not copied.
func NewSliceReader(recs []Record) *SliceReader { return &SliceReader{recs: recs} }

// Next implements Reader.
func (s *SliceReader) Next() (Record, error) {
	if s.pos >= len(s.recs) {
		return Record{}, io.EOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

// Reset rewinds the reader to the first record.
func (s *SliceReader) Reset() { s.pos = 0 }

// Len returns the total number of records.
func (s *SliceReader) Len() int { return len(s.recs) }

// Collect drains a Reader into a slice, validating every record and checking
// path continuity (each record must begin where the previous one left off).
func Collect(r Reader) ([]Record, error) {
	var out []Record
	var expect isa.Addr
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if err := rec.Validate(); err != nil {
			return out, err
		}
		if len(out) > 0 && rec.Start != expect {
			return out, fmt.Errorf("trace: discontinuity: record %d starts at %s, previous continued at %s",
				len(out), rec.Start, expect)
		}
		expect = rec.NextPC()
		out = append(out, rec)
	}
}

// Stats summarizes a trace's dynamic behaviour.
type Stats struct {
	Records       int64
	Insts         int64
	Branches      int64
	Conditionals  int64
	TakenCond     int64
	Unconditional int64
	Indirect      int64
	Returns       int64
	Calls         int64
}

// BranchFrac returns the fraction of dynamic instructions that are branches.
func (s Stats) BranchFrac() float64 {
	if s.Insts == 0 {
		return 0
	}
	return float64(s.Branches) / float64(s.Insts)
}

// TakenFrac returns the fraction of conditional branches that were taken.
func (s Stats) TakenFrac() float64 {
	if s.Conditionals == 0 {
		return 0
	}
	return float64(s.TakenCond) / float64(s.Conditionals)
}

// Add accumulates one record into the stats.
func (s *Stats) Add(r Record) {
	s.Records++
	s.Insts += int64(r.N)
	if r.BrKind == isa.Plain {
		return
	}
	s.Branches++
	switch {
	case r.BrKind.IsConditional():
		s.Conditionals++
		if r.Taken {
			s.TakenCond++
		}
	default:
		s.Unconditional++
	}
	if r.BrKind.IsIndirect() {
		s.Indirect++
	}
	if r.BrKind == isa.Return {
		s.Returns++
	}
	if r.BrKind.IsCall() {
		s.Calls++
	}
}

// Scan consumes the whole reader and returns aggregate stats.
func Scan(r Reader) (Stats, error) {
	var s Stats
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return s, nil
		}
		if err != nil {
			return s, err
		}
		s.Add(rec)
	}
}

// BudgetLimit returns the stream limit for a run whose correct-path budget
// is insts instructions: the budget plus a quarter, headroom for the
// wrong-path consistency checks at the final records. It fails when insts
// is not positive or the limit overflows an int64, since no run can honour
// such a budget.
func BudgetLimit(insts int64) (int64, error) {
	if insts <= 0 {
		return 0, fmt.Errorf("trace: instruction budget %d not positive", insts)
	}
	limit := insts + insts/4
	if limit < insts {
		return 0, fmt.Errorf("trace: instruction budget %d overflows its stream limit", insts)
	}
	return limit, nil
}

// LimitReader truncates an underlying reader after approximately maxInsts
// instructions (it never splits a record).
type LimitReader struct {
	r        Reader
	maxInsts int64
	seen     int64
}

// NewLimitReader wraps r with an instruction budget.
func NewLimitReader(r Reader, maxInsts int64) *LimitReader {
	return &LimitReader{r: r, maxInsts: maxInsts}
}

// Next implements Reader.
func (l *LimitReader) Next() (Record, error) {
	if l.seen >= l.maxInsts {
		return Record{}, io.EOF
	}
	rec, err := l.r.Next()
	if err != nil {
		return rec, err
	}
	l.seen += int64(rec.N)
	return rec, nil
}
