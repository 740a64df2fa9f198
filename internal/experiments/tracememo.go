package experiments

import (
	"sync"

	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/isa"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// Trace memoization. Most sweeps simulate the same benchmark under many
// configurations, and every one of those cells walks the identical
// correct-path stream: the walker is seeded per (benchmark, stream seed),
// and the dynamic path never depends on the fetch configuration. Generating
// the stream is a fifth or more of a low-miss-rate cell's wall time, so
// both executors run cells through a cellCache, which generates each stream
// once and hands its cells replay cursors over the shared records. Replay
// is bit-identical by construction: the records handed out, their order,
// and the terminal error (io.EOF from the instruction limit, or a walker
// fault mid-stream) are exactly what a fresh bounded walker yields.
//
// The records are stored packed, 4 bytes each instead of trace.Record's 32,
// in fixed chunks that never move as the stream grows. A packed record drops
// Start (every record starts at its predecessor's NextPC, so the stream
// keeps only the first) and holds a taken target as a word offset from the
// image base. Generation checks that every record unpacks to exactly the
// walker's; a stream with one that does not is not memoized at all, and its
// cells walk it lazily. A cellCache keeps the chunks of the streams it drops
// and packs later streams into them, so a long work-list or a warm sweep
// worker allocates chunks only for its largest streams.

// traceKey identifies one dynamic stream at one instruction budget. It
// names the stream by its built bench, not by the profile name: two
// profiles that share a name but differ in a generator parameter walk
// different streams.
type traceKey struct {
	b     *synth.Bench
	seed  uint64
	insts int64
}

// Memo chunk geometry: 1<<chunkShift packed records (16 Ki, 64 KiB) each.
const (
	chunkShift = 14
	chunkRecs  = 1 << chunkShift
	chunkMask  = chunkRecs - 1
)

// memoChunk is one fixed block of a packed stream.
type memoChunk [chunkRecs]packedRec

// packedRec is one memoized record in one word, low bits first: N-1 in 6
// bits (the walker caps N at 64), taken in 1, the kind in 3 and the taken
// target's word offset from the image base in the top 22 (zero when the
// record is not taken). Start is implied by the position in the stream.
type packedRec uint32

const (
	recNMask       = 1<<6 - 1 // bits 0-5: N-1
	recTakenShift  = 6        // bit 6: taken
	recKindShift   = 7        // bits 7-9: kind
	recKindMask    = 1<<3 - 1
	recTargetShift = 10 // bits 10-31: target word offset
)

// unpack returns the record's length, kind and direction, its target when
// it starts at pc (zero when it is not taken) and the start of the next
// record: the taken target, else the fall-through. The selection compiles
// to conditional moves; a branch on taken, which is data-dependent, would
// be mispredicted for every other conditional. Callers build the
// trace.Record in their return statement: a Record held in a variable is
// kept in memory, and copying it out after its byte-wide stores stalled
// replay to 1.4-1.8x the cost of reading unpacked records.
func (p packedRec) unpack(pc, base isa.Addr) (n int, kind isa.Kind, taken bool, target, next isa.Addr) {
	n = int(p&recNMask) + 1
	kind = isa.Kind(p >> recKindShift & recKindMask)
	taken = p>>recTakenShift&1 != 0
	tgt := base + isa.Addr(p>>recTargetShift)*isa.InstBytes
	next = pc + isa.Addr(n)*isa.InstBytes
	if taken {
		target, next = tgt, tgt
	}
	return n, kind, taken, target, next
}

// pack packs rec, expected to start at pc, and reports whether it unpacks
// to exactly rec: false for a length outside 1..64, a kind past 7, a target
// outside the 2^22 words above base or misaligned, a not-taken record
// carrying a target, or a start other than pc. Each field is truncated to
// its width, so the round trip is the only check. It also returns where
// replay will start the next record, which that record's check then holds
// it to.
func pack(rec trace.Record, pc, base isa.Addr) (packedRec, isa.Addr, bool) {
	p := packedRec(rec.N-1)&recNMask | packedRec(rec.BrKind&recKindMask)<<recKindShift
	if rec.Taken {
		p |= 1<<recTakenShift | packedRec((rec.Target-base)/isa.InstBytes)<<recTargetShift
	}
	n, kind, taken, target, next := p.unpack(pc, base)
	got := trace.Record{Start: pc, N: n, BrKind: kind, Taken: taken, Target: target}
	return p, next, got == rec
}

// packedStream is a whole stream in packed form: the records a reader
// yields, then the error it ends with.
type packedStream struct {
	base, start isa.Addr
	chunks      []*memoChunk
	n           int
	err         error
	// valid reports that every record passed Validate at generation time, so
	// replay cursors may vouch for the stream (trace.PreValidated) and spare
	// each cell the per-record re-check. A stream with an invalid record is
	// replayed without the vouching: each engine then validates per record
	// and fails exactly as it would on a fresh walker.
	valid bool
}

// packStream drains rd into a packed stream over an image based at base,
// taking each chunk from newChunk. It returns nil at the first record that
// does not pack exactly.
func packStream(rd trace.Reader, base isa.Addr, newChunk func() *memoChunk) *packedStream {
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
			s.chunks = append(s.chunks, newChunk())
		}
		s.chunks[s.n>>chunkShift][s.n&chunkMask] = p
		s.n++
		pc = next
	}
}

// sharedTrace is one stream shared by several cells, generated on first use
// (sync.Once so concurrent cells needing the same stream generate it exactly
// once). A nil stream after generation means it did not pack.
type sharedTrace struct {
	once   sync.Once
	key    traceKey
	cache  *cellCache // supplies the chunks
	stream *packedStream
	// readers counts the cells reading the stream now, under cellCache.mu.
	readers int
}

// reader returns a fresh replay cursor over the stream, or nil when the
// stream is not memoized and the cell must walk it itself.
func (s *sharedTrace) reader() trace.Reader {
	s.once.Do(func() {
		b := s.key.b
		rd := trace.NewLimitReader(b.NewWalker(s.key.seed), traceLimit(s.key.insts))
		s.stream = packStream(rd, b.Image().Base(), s.cache.newChunk)
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
	pc := r.pc
	n, kind, taken, target, next := r.s.chunks[r.i>>chunkShift][r.i&chunkMask].unpack(pc, r.s.base)
	r.i, r.pc = r.i+1, next
	return trace.Record{Start: pc, N: n, BrKind: kind, Taken: taken, Target: target}, nil
}

// PreValidatedTrace implements trace.PreValidated: true when every replayed
// record passed Validate at generation time.
func (r *replayReader) PreValidatedTrace() bool { return r.s.valid }

// traceLimit is the stream length simulateCell feeds an engine with an
// instruction budget of insts, which JobSpec.Validate or Options.check has
// accepted.
func traceLimit(insts int64) int64 {
	limit, _ := trace.BudgetLimit(insts)
	return limit
}

// cellCache is the one reuse path of both executors: the in-process pool
// builds one per work-list and a sweep worker's JobRunner keeps one for its
// lifetime. Work-lists and fleet batches list every cell of one stream
// (policies x penalties x cache sizes) in a row, so the cache memoizes the
// stream of every in-flight cell plus last, the most recently released
// one, and drops any other when its last reader finishes. A dropped
// stream's chunks go onto spare, which packing drains before it allocates,
// so a work-list's third stream reuses its first stream's chunks. Each
// in-flight cell also borrows an engine arena from a free list. Neither
// list is a sync.Pool, which would drop them at every GC, nor shared
// beyond the cache: a process-wide spare list would keep the largest
// stream of an earlier campaign live through every later one. Every reuse
// is behaviour-neutral. The zero value is ready and safe for concurrent
// cells.
type cellCache struct {
	mu      sync.Mutex
	streams map[traceKey]*sharedTrace
	last    *sharedTrace
	spare   []*memoChunk
	arenas  []*core.Arena
}

// simulate runs one validated cell through simulateCell on a replay of its
// stream and a borrowed arena, reporting to sinks.
func (cc *cellCache) simulate(c runCell, sinks Options) (distsweep.JobResult, error) {
	s, arena := cc.acquire(traceKey{b: c.bench, seed: c.spec.Seed, insts: c.spec.Insts})
	defer cc.release(s, arena)
	return simulateCell(c, sinks, s.reader(), arena)
}

// acquire registers a reader of stream k and borrows an arena. The stream
// is generated later, under its own sync.Once, so a walk never holds mu.
func (cc *cellCache) acquire(k traceKey) (*sharedTrace, *core.Arena) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	s := cc.streams[k]
	if s == nil {
		if cc.streams == nil {
			cc.streams = map[traceKey]*sharedTrace{}
		}
		s = &sharedTrace{key: k, cache: cc}
		cc.streams[k] = s
	}
	s.readers++
	if n := len(cc.arenas); n > 0 {
		a := cc.arenas[n-1]
		cc.arenas = cc.arenas[:n-1]
		return s, a
	}
	return s, core.NewArena()
}

// release returns what acquire handed out. A stream whose last reader
// finishes becomes the retained one, dropping the one retained before it
// unless a cell is reading that again; a dropped stream's chunks become
// spares.
func (cc *cellCache) release(s *sharedTrace, a *core.Arena) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	cc.arenas = append(cc.arenas, a)
	if s.readers--; s.readers > 0 {
		return
	}
	if old := cc.last; old != nil && old != s && old.readers == 0 {
		delete(cc.streams, old.key)
		if old.stream != nil {
			cc.spare = append(cc.spare, old.stream.chunks...)
		}
	}
	cc.last = s
}

// newChunk hands out a spare chunk, or a new one when none is left. Its
// stale records are overwritten before a cursor reads them.
func (cc *cellCache) newChunk() *memoChunk {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if n := len(cc.spare); n > 0 {
		c := cc.spare[n-1]
		cc.spare = cc.spare[:n-1]
		return c
	}
	return new(memoChunk)
}
