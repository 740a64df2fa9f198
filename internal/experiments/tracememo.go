package experiments

import (
	"sync"

	"specfetch/internal/isa"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// Trace memoization. Most sweeps simulate the same benchmark under many
// configurations, and every one of those cells walks the identical
// correct-path stream: the walker is seeded per (benchmark, stream seed),
// and the dynamic path never depends on the fetch configuration. Generating
// the stream is a fifth or more of a low-miss-rate cell's wall time, so the
// local executor pre-generates each stream that more than one cell of a
// work-list reads and hands the cells replay cursors over the shared
// records. Replay is bit-identical by construction: the records handed out,
// their order, and the terminal error (io.EOF from the instruction limit, or
// a walker fault mid-stream) are exactly what a fresh bounded walker yields.
//
// The records are stored packed, 8 bytes each instead of trace.Record's 32,
// in fixed chunks that never move as the stream grows. A packed record drops
// Start (every record starts at its predecessor's NextPC, so the stream
// keeps only the first) and holds a taken target as a word offset from the
// image base. Generation checks that every record unpacks to exactly the
// walker's; a stream with one that does not is not memoized at all, and its
// cells walk it lazily like an unshared stream.

// traceKey identifies one dynamic stream at one instruction budget.
type traceKey struct {
	bench string
	seed  uint64
	insts int64
}

// Memo chunk geometry: 1<<chunkShift packed records (16 Ki, 128 KiB) each.
const (
	chunkShift = 14
	chunkRecs  = 1 << chunkShift
	chunkMask  = chunkRecs - 1
)

// packedRec is one memoized record. Start is implied by the position in the
// stream; target is the taken target's word offset from the image base and
// zero when the record is not taken.
type packedRec struct {
	target uint32
	n      uint16
	kind   isa.Kind
	taken  bool
}

// unpack returns the target of the record that starts at pc (zero when it
// is not taken) and the start of the next record: the taken target, else
// the fall-through. The selection compiles to conditional moves; a branch
// on taken, which is data-dependent, would be mispredicted for every other
// conditional. Callers build the trace.Record in their return statement:
// a Record held in a variable is kept in memory, and copying it out after
// its byte-wide stores stalled replay to 1.4-1.8x the cost of reading
// unpacked records.
func (p packedRec) unpack(pc, base isa.Addr) (target, next isa.Addr) {
	tgt := base + isa.Addr(p.target)*isa.InstBytes
	next = pc + isa.Addr(p.n)*isa.InstBytes
	if p.taken {
		target, next = tgt, tgt
	}
	return target, next
}

// pack packs rec, expected to start at pc, and reports whether it unpacks
// to exactly rec: false for a length over 65535, a target outside the
// 32-bit word range above base or misaligned, a not-taken record carrying a
// target, or a start other than pc. It also returns where replay will
// start the next record, which that record's check then holds it to.
func pack(rec trace.Record, pc, base isa.Addr) (packedRec, isa.Addr, bool) {
	p := packedRec{n: uint16(rec.N), kind: rec.BrKind, taken: rec.Taken}
	if rec.Taken {
		p.target = uint32((rec.Target - base) / isa.InstBytes)
	}
	target, next := p.unpack(pc, base)
	got := trace.Record{Start: pc, N: int(p.n), BrKind: p.kind, Taken: p.taken, Target: target}
	return p, next, got == rec
}

// packedStream is a whole stream in packed form: the records a reader
// yields, then the error it ends with.
type packedStream struct {
	base, start isa.Addr
	chunks      []*[chunkRecs]packedRec
	n           int
	err         error
	// valid reports that every record passed Validate at generation time, so
	// replay cursors may vouch for the stream (trace.PreValidated) and spare
	// each cell the per-record re-check. A stream with an invalid record is
	// replayed without the vouching: each engine then validates per record
	// and fails exactly as it would on a fresh walker.
	valid bool
}

// packStream drains rd into a packed stream over an image based at base. It
// returns nil at the first record that does not pack exactly.
func packStream(rd trace.Reader, base isa.Addr) *packedStream {
	s := &packedStream{base: base, valid: true}
	var pc isa.Addr
	for {
		rec, err := rd.Next()
		if err != nil {
			s.err = err
			return s
		}
		if s.n == 0 {
			s.start, pc = rec.Start, rec.Start
		}
		p, next, ok := pack(rec, pc, base)
		if !ok {
			return nil
		}
		if rec.Validate() != nil {
			s.valid = false
		}
		if s.n&chunkMask == 0 {
			s.chunks = append(s.chunks, new([chunkRecs]packedRec))
		}
		s.chunks[s.n>>chunkShift][s.n&chunkMask] = p
		s.n++
		pc = next
	}
}

// sharedTrace is one stream shared by several cells, generated on first use
// (sync.Once so concurrent pool workers needing the same stream generate it
// exactly once). A nil stream after generation means it did not pack.
type sharedTrace struct {
	once   sync.Once
	b      *synth.Bench
	key    traceKey
	stream *packedStream
}

// reader returns a fresh replay cursor over the stream, or nil when the
// stream is not memoized and the cell must walk it itself.
func (s *sharedTrace) reader() trace.Reader {
	s.once.Do(func() {
		rd := trace.NewLimitReader(s.b.NewWalker(s.key.seed), traceLimit(s.key.insts))
		s.stream = packStream(rd, s.b.Image().Base())
	})
	if s.stream == nil {
		return nil
	}
	return &replayReader{s: s.stream, pc: s.stream.start}
}

// replayReader is a cursor over a packed stream. It decodes each record in
// place, carrying the next record's start forward, and after the records
// are exhausted it reports the stream's terminal error forever, like the
// exhausted LimitReader it stands in for.
type replayReader struct {
	s  *packedStream
	i  int
	pc isa.Addr
}

// Next implements trace.Reader.
func (r *replayReader) Next() (trace.Record, error) {
	if r.i >= r.s.n {
		return trace.Record{}, r.s.err
	}
	p, pc := r.s.chunks[r.i>>chunkShift][r.i&chunkMask], r.pc
	target, next := p.unpack(pc, r.s.base)
	r.i, r.pc = r.i+1, next
	return trace.Record{Start: pc, N: int(p.n), BrKind: p.kind, Taken: p.taken, Target: target}, nil
}

// PreValidatedTrace implements trace.PreValidated: true when every replayed
// record passed Validate at generation time.
func (r *replayReader) PreValidatedTrace() bool { return r.s.valid }

// traceLimit is the stream length simulateLocal feeds an engine with an
// instruction budget of insts: headroom for the wrong-path consistency
// checks at the final records, same as a direct walker run.
func traceLimit(insts int64) int64 { return insts + insts/4 }

// sharedTraces pre-plans memoization for a work-list: streams read by two or
// more cells are shared, streams unique to one cell stay on the lazy walker
// (memoizing those would only add memory). Generation itself is deferred to
// first use so a work-list that fails early generates nothing extra.
func sharedTraces(opt Options, cells []runCell) map[traceKey]*sharedTrace {
	counts := make(map[traceKey]int, len(cells))
	for _, c := range cells {
		counts[cellTraceKey(c, opt)]++
	}
	var shared map[traceKey]*sharedTrace
	for _, c := range cells {
		k := cellTraceKey(c, opt)
		if counts[k] < 2 {
			continue
		}
		if shared == nil {
			shared = make(map[traceKey]*sharedTrace)
		}
		if _, ok := shared[k]; !ok {
			shared[k] = &sharedTrace{b: c.bench, key: k}
		}
	}
	return shared
}

// cellTraceKey names the stream a cell reads.
func cellTraceKey(c runCell, opt Options) traceKey {
	return traceKey{bench: c.bench.Profile().Name, seed: c.seed, insts: opt.Insts}
}
