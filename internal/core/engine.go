package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"specfetch/internal/bpred"
	"specfetch/internal/cache"
	"specfetch/internal/isa"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/program"
	"specfetch/internal/trace"
)

// Engine is one simulation instance. Build it with NewEngine and call Run
// once; engines are not reusable or safe for concurrent use.
type Engine struct {
	cfg  Config
	img  *program.Image
	pred bpred.Predictor
	rd   trace.Reader

	geom isa.LineGeom
	ic   *cache.ICache
	l2   *cache.ICache // optional second level (nil when disabled)
	bus  cache.Bus
	// busAccCy accumulates the cycles the bus spends transferring lines
	// (per-transfer latency, summed), feeding Snapshot.BusBusy so interval
	// collectors can difference occupancy without consuming bus events.
	busAccCy Cycles
	// resumeBufs hold wrong-path fills in flight (Resume policy); the paper
	// has exactly one, the MSHR extension several.
	resumeBufs []cache.LineBuffer
	// prefBufs hold prefetches in flight; one in the paper.
	prefBufs []cache.LineBuffer
	ras      *bpred.RAS // return-address stack (nil when disabled)

	cy          Cycles // current cycle
	lastIssueCy Cycles // last cycle in which correct-path instructions issued

	// condSlots holds the resolve cycles of in-flight correct-path
	// conditional branches (FIFO; times are monotone). condHead indexes the
	// oldest live entry: pops advance the head instead of re-slicing, so
	// the backing array is reused (and, once warm, never reallocated).
	condSlots []Cycles
	condHead  int
	// wrongConds counts wrong-path conditionals currently occupying
	// speculation slots; they are squashed when the window ends.
	wrongConds int

	// Delayed predictor updates, each FIFO with monotone times, with the
	// same head-index pop discipline as condSlots.
	btbQ        []btbUpdate
	btbHead     int
	resolveQ    []resolveUpdate
	resolveHead int
	// nextUpdAt caches the earliest pending delayed-update time (maxCycles
	// when both queues are drained), so the per-cycle pending check is one
	// compare instead of four loads. Enqueues lower it; applyUpdates
	// recomputes it exactly after popping.
	nextUpdAt Cycles

	// Trace cursor.
	cur       trace.Record
	curIdx    int
	haveRec   bool
	traceDone bool
	// trustRecs skips the per-record Validate when the reader vouches that
	// every record it will yield already passed it (trace.PreValidated).
	trustRecs bool

	// lastInstLine tracks the line of the most recently fetched
	// correct-path instruction, to identify structural line references.
	lastInstLine uint64
	haveLastLine bool

	// Per-cycle prefetch candidates: the branch-target candidate (higher
	// priority, TargetPrefetch extension) and the next-line candidate.
	prefCand        uint64
	prefCandValid   bool
	targetCand      uint64
	targetCandValid bool
	// Stream-prefetch state (StreamDepth extension): the next sequential
	// line to prefetch and how many remain in the current stream.
	streamNext uint64
	streamLeft int
	// nextFlushAt is the instruction count of the next context-switch
	// flush (FlushInterval extension).
	nextFlushAt int64

	// fastIssue gates the skip-ahead bulk plain-issue path: it requires
	// that no per-instruction observer can fire (no event probe, no access
	// callback, no prefetch engine consuming first-reference bits). A
	// sample-only probe (obs.SampleOnly) does not disqualify it: sampling
	// observes counters at instruction-count boundaries, and bulk deltas
	// are segmented at those boundaries by emitBulkBoundaries. The event-jump
	// stall and window accounting do not need the gate — they emit
	// byte-identical probe streams.
	fastIssue bool
	// wPow2/wShift/wMask precompute FetchWidth divisions for the bulk path;
	// a variable-divisor divide costs tens of machine cycles and bulkPlains
	// needs several per trace record.
	wPow2  bool
	wShift uint
	wMask  int
	// wayScratch holds the probed way of each line segment between
	// bulkPlains' residency pass and its effects pass, so each line is looked
	// up once. Reused across records (and across runs via the arena).
	wayScratch []cache.WayHandle
	// plainMemo, when non-nil, is the bulk-issue residency memo (see
	// plainBulkMemo). Enabled only direct-mapped under the fastIssue gate;
	// nil otherwise.
	plainMemo []plainBulkMemo

	// active is the static policy currently steering miss handling. It
	// equals cfg.Policy for static runs; under Adaptive it starts at the
	// chooser's First pick and is rewritten at every decision boundary.
	// Policy consultations in the engine read active, never cfg.Policy.
	active Policy

	// The boundary schedule. Two correct-path instruction-count grids cut
	// the run into windows: every cfg.SampleInterval the sampler (when
	// non-nil) receives a snapshot, and every cfg.AdaptInterval the
	// chooser (when non-nil, Adaptive policy only) receives the window
	// since its previous boundary. nextBoundary is the nearest point of
	// either active grid (noBoundary when neither is), so the issue path
	// makes one compare per instruction whatever is attached.
	sampler      obs.Sampler
	chooser      Chooser
	nextBoundary int64
	// adaptFrom is the snapshot at the last decision boundary (zero at run
	// start): the opening edge of the chooser's next window.
	adaptFrom obs.Snapshot

	// probe receives instrumentation callbacks; nil disables them, and
	// every call site is guarded so the nil path costs one branch.
	probe obs.Probe

	res Result
	err error
}

// maxCycles is a sentinel beyond any reachable simulation time.
const maxCycles = Cycles(1) << 62

// noBoundary is the boundary schedule's sentinel when no grid is active.
const noBoundary = int64(math.MaxInt64)

// btbUpdate is a decode-time speculative BTB insertion.
type btbUpdate struct {
	at     Cycles
	pc     isa.Addr
	target isa.Addr
}

// resolveUpdate trains the predictor when a correct-path branch resolves.
type resolveUpdate struct {
	at       Cycles
	pc       isa.Addr
	taken    bool
	indirect bool
	target   isa.Addr // actual target, for indirect updates
}

// NewEngine builds a simulation over the given static image, dynamic trace,
// and branch predictor. The predictor must be freshly constructed: the
// engine trains it as the run progresses.
func NewEngine(cfg Config, img *program.Image, rd trace.Reader, pred bpred.Predictor) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if img == nil {
		return nil, errors.New("core: nil program image")
	}
	if rd == nil {
		return nil, errors.New("core: nil trace reader")
	}
	if pred == nil {
		return nil, errors.New("core: nil predictor")
	}
	if cfg.Arena == nil {
		cfg.Arena = NewArena() // an empty arena allocates everything fresh
	}
	e := &Engine{
		cfg:  cfg,
		img:  img,
		pred: pred,
		rd:   rd,
		geom: isa.LineGeom{LineBytes: cfg.ICache.LineBytes},
	}
	e.res.Policy = cfg.Policy
	e.active = cfg.Policy
	if cfg.Policy == Adaptive {
		if cfg.Chooser == nil {
			return nil, errors.New("core: adaptive policy requires a Chooser (build one from Config.AdaptStrategy via internal/adaptive)")
		}
		e.chooser = cfg.Chooser
		first := e.chooser.First()
		if !first.IsStatic() {
			return nil, fmt.Errorf("core: chooser First() returned non-static policy %v", first)
		}
		e.active = first
	}
	e.lastIssueCy = -Cycles(cfg.DecodeLatency) // nothing pending at t=0
	e.nextUpdAt = maxCycles
	if cfg.RASDepth > 0 {
		e.ras = bpred.NewRAS(cfg.RASDepth)
	}
	nbuf := 1
	if cfg.MSHRs > 0 {
		nbuf = cfg.MSHRs
	}
	if err := cfg.Arena.acquire(e, nbuf); err != nil {
		return nil, err
	}
	if cfg.Probe != nil {
		if s, ok := cfg.Probe.(obs.Sampler); ok && cfg.SampleInterval > 0 {
			e.sampler = s
		}
		// A sample-only probe promises to ignore every per-event callback,
		// so the engine does not carry it as e.probe at all: event emission
		// stays disabled and — below — the skip-ahead bulk path stays
		// eligible, with bulk deltas segmented at sample boundaries.
		if !obs.IsSampleOnly(cfg.Probe) {
			e.probe = cfg.Probe
		}
	}
	e.scheduleAfter(0)
	e.fastIssue = cfg.StepMode == StepSkipAhead && e.probe == nil && !e.prefetchOn()
	if pv, ok := rd.(trace.PreValidated); ok && pv.PreValidatedTrace() {
		e.trustRecs = true
	}
	if w := cfg.FetchWidth; w&(w-1) == 0 {
		e.wPow2 = true
		e.wShift = uint(bits.TrailingZeros64(uint64(w)))
		e.wMask = w - 1
	}
	if e.fastIssue && cfg.ICache.Assoc == 1 {
		e.plainMemo = cfg.Arena.takeMemo(e.ic, cfg.FetchWidth)
	}
	return e, nil
}

// Run executes the simulation to trace end or the instruction budget and
// returns the measurements.
func Run(cfg Config, img *program.Image, rd trace.Reader, pred bpred.Predictor) (Result, error) {
	e, err := NewEngine(cfg, img, rd, pred)
	if err != nil {
		return Result{}, err
	}
	return e.Run()
}

// Run drives the simulation loop.
func (e *Engine) Run() (Result, error) {
	// The borrowed storage goes back to the arena (with whatever capacity
	// this run grew) on every exit path.
	defer e.cfg.Arena.release(e)
	e.loadRecord()
	clean := true
	if e.fastIssue {
		clean = e.runFast()
	} else {
		clean = e.runStepped()
	}
	if !clean {
		// An error surfaced mid-step: return exactly what the reference
		// stepper returns there (counters as-is, Cycles unset).
		return e.res, e.err
	}
	e.res.Cycles = e.cy
	if e.sampler != nil {
		// Close the series on the exact final counters so cumulative
		// values match the returned Result. The chooser is not consulted:
		// no policy runs after the last instruction.
		e.sampler.Sample(e.snapshot(e.cy))
	}
	// A trace error on the very first (or a boundary) record ends the loop
	// without passing through stepCycle's error check.
	return e.res, e.err
}

// runStepped is the outer loop shared by the reference stepper and the
// probe-observed skip-ahead path: one stepCycle per iteration, with delayed
// predictor updates applied first. It reports false when an error surfaced
// mid-step (as opposed to the loop ending at done()).
func (e *Engine) runStepped() bool {
	for !e.done() {
		e.applyUpdates(e.cy)
		if e.probe == nil {
			e.stepCycle()
		} else {
			cy, insts0 := e.cy, e.res.Insts
			e.stepCycle()
			e.probe.FetchCycle(cy, int(e.res.Insts-insts0))
		}
		if e.err != nil {
			return false
		}
	}
	return true
}

// runFast is the skip-ahead outer loop: whole cycles of plain instructions
// over resident lines are issued in bulk, and everything else falls back to
// the normal stepper (whose stalls and windows themselves jump in
// skip-ahead mode). Delayed predictor updates are applied lazily — they are
// monotone pops only observable at predictor queries, which happen only
// inside stepCycle — so the predictor sees the exact update/query order the
// reference stepper produces.
func (e *Engine) runFast() bool {
	for !e.done() {
		if e.bulkPlains() {
			if e.err != nil {
				return false
			}
			continue
		}
		if e.updatesPending(e.cy) {
			e.applyUpdates(e.cy)
		}
		e.stepCycle()
		if e.err != nil {
			return false
		}
	}
	return true
}

// snapshot copies the cumulative counters as they stand, stamped at cycle
// cy.
func (e *Engine) snapshot(cy Cycles) obs.Snapshot {
	return obs.Snapshot{
		Cycle:             cy,
		Insts:             e.res.Insts,
		Lost:              e.res.Lost,
		RightPathAccesses: e.res.RightPathAccesses,
		RightPathMisses:   e.res.RightPathMisses,
		BusTransfers:      e.bus.Transfers,
		BusBusy:           e.busAccCy,
	}
}

// scheduleAfter sets nextBoundary to the first point after insts on the
// active grids.
func (e *Engine) scheduleAfter(insts int64) {
	e.nextBoundary = noBoundary
	if e.sampler != nil {
		e.nextBoundary = min(e.nextBoundary, (insts/e.cfg.SampleInterval+1)*e.cfg.SampleInterval)
	}
	if e.chooser != nil {
		e.nextBoundary = min(e.nextBoundary, (insts/e.cfg.AdaptInterval+1)*e.cfg.AdaptInterval)
	}
}

// boundary fires the grid points at snap, which stands exactly on
// nextBoundary: the sampler receives the snapshot, and the chooser the
// window since its previous boundary, cut by the same obs.Snapshot.Since
// the window store uses. The chooser's pick becomes the active policy at
// once — the boundary instruction has issued, and every later miss is
// handled under the new policy.
func (e *Engine) boundary(snap obs.Snapshot) {
	if e.sampler != nil && snap.Insts%e.cfg.SampleInterval == 0 {
		e.sampler.Sample(snap)
	}
	if e.chooser != nil && snap.Insts%e.cfg.AdaptInterval == 0 {
		next := e.chooser.Decide(AdaptWindow{
			WindowRecord: snap.Since(e.adaptFrom, int(snap.Insts/e.cfg.AdaptInterval)-1),
			Active:       e.active,
		})
		if !next.IsStatic() {
			panic(fmt.Sprintf("core: chooser Decide() returned non-static policy %v", next))
		}
		if next != e.active {
			e.active = next
			e.res.PolicySwitches++
		}
		e.adaptFrom = snap
	}
	e.scheduleAfter(snap.Insts)
}

func (e *Engine) done() bool {
	if e.traceDone && !e.haveRec {
		return true
	}
	return e.cfg.MaxInsts > 0 && e.res.Insts >= e.cfg.MaxInsts
}

// loadRecord advances the trace cursor to the next record.
func (e *Engine) loadRecord() {
	rec, err := e.rd.Next()
	if err != nil {
		e.haveRec = false
		e.traceDone = true
		if !errors.Is(err, io.EOF) {
			e.err = fmt.Errorf("core: reading trace: %w", err)
		}
		return
	}
	if !e.trustRecs {
		if verr := rec.Validate(); verr != nil {
			e.haveRec = false
			e.traceDone = true
			e.err = verr
			return
		}
	}
	e.cur = rec
	e.curIdx = 0
	e.haveRec = true
}

// instInfo describes the next correct-path instruction.
type instInfo struct {
	pc     isa.Addr
	kind   isa.Kind
	taken  bool
	target isa.Addr
}

// peekInst returns the next correct-path instruction without consuming it.
// It must only be called when !e.done().
func (e *Engine) peekInst() instInfo {
	pc := e.cur.Start.Plus(e.curIdx)
	if e.curIdx == e.cur.N-1 && e.cur.BrKind != isa.Plain {
		return instInfo{pc: pc, kind: e.cur.BrKind, taken: e.cur.Taken, target: e.cur.Target}
	}
	return instInfo{pc: pc, kind: isa.Plain}
}

// consumeInst advances past the instruction peekInst reported.
func (e *Engine) consumeInst() {
	e.curIdx++
	if e.curIdx >= e.cur.N {
		e.loadRecord()
	}
}

// applyUpdates replays delayed predictor updates whose time has come, in
// time order, so predictions at cycle `now` see exactly the state a real
// machine would have. Pops advance the head indexes; a drained queue
// resets to the front of its backing array, which is therefore reused
// instead of regrown (the old slice[1:] pop made every future append
// reallocate).
// updatesPending reports whether any delayed update is due at `now`. It is
// small enough to inline, so hot loops use it to skip the applyUpdates call
// (a pure no-op then: drained queues were already reset by the call that
// drained them).
func (e *Engine) updatesPending(now Cycles) bool {
	return e.nextUpdAt <= now
}

// queueBTB/queueResolve enqueue delayed predictor updates, keeping the
// earliest-pending cache coherent. Times within each queue are monotone, so
// a new entry can only lower nextUpdAt when its queue was drained.
func (e *Engine) queueBTB(u btbUpdate) {
	if u.at < e.nextUpdAt {
		e.nextUpdAt = u.at
	}
	e.btbQ = append(e.btbQ, u)
}

func (e *Engine) queueResolve(u resolveUpdate) {
	if u.at < e.nextUpdAt {
		e.nextUpdAt = u.at
	}
	e.resolveQ = append(e.resolveQ, u)
}

func (e *Engine) applyUpdates(now Cycles) {
	for {
		bOK := e.btbHead < len(e.btbQ) && e.btbQ[e.btbHead].at <= now
		rOK := e.resolveHead < len(e.resolveQ) && e.resolveQ[e.resolveHead].at <= now
		if !bOK && !rOK {
			break
		}
		if bOK && (!rOK || e.btbQ[e.btbHead].at <= e.resolveQ[e.resolveHead].at) {
			u := e.btbQ[e.btbHead]
			e.btbHead++
			e.pred.DecodeTaken(u.pc, u.target)
		} else {
			u := e.resolveQ[e.resolveHead]
			e.resolveHead++
			if u.indirect {
				e.pred.ResolveIndirect(u.pc, u.target)
			} else {
				e.pred.ResolveCond(u.pc, u.taken)
			}
		}
	}
	if e.btbHead > 0 && e.btbHead == len(e.btbQ) {
		e.btbQ = e.btbQ[:0]
		e.btbHead = 0
	}
	if e.resolveHead > 0 && e.resolveHead == len(e.resolveQ) {
		e.resolveQ = e.resolveQ[:0]
		e.resolveHead = 0
	}
	next := maxCycles
	if e.btbHead < len(e.btbQ) {
		next = e.btbQ[e.btbHead].at
	}
	if e.resolveHead < len(e.resolveQ) && e.resolveQ[e.resolveHead].at < next {
		next = e.resolveQ[e.resolveHead].at
	}
	e.nextUpdAt = next
}

// prefetchOn reports whether any prefetch engine is configured.
func (e *Engine) prefetchOn() bool {
	return e.cfg.NextLinePrefetch || e.cfg.TargetPrefetch || e.cfg.StreamDepth > 0
}

// fillLatency returns the fill time for line, consulting (and updating)
// the optional second-level cache.
func (e *Engine) fillLatency(line uint64) int {
	if e.l2 == nil {
		return e.cfg.MissPenalty
	}
	if e.l2.Access(line) {
		e.res.Traffic.L2Hits++
		return e.cfg.L2Latency
	}
	e.l2.Fill(line)
	e.res.Traffic.L2Misses++
	return e.cfg.MissPenalty
}

// busStartLine begins the transfer of line no earlier than `at` and
// returns its completion cycle, honouring the L2 hierarchy and the
// pipelined-memory extension. haveLine=false skips the L2 consultation
// (full memory latency). kind labels the transfer for the probe.
func (e *Engine) busStartLine(at Cycles, line uint64, haveLine bool, kind obs.FillKind) Cycles {
	lat := e.cfg.MissPenalty
	if haveLine {
		lat = e.fillLatency(line)
	}
	var start, done Cycles
	if e.cfg.PipelinedMemory {
		e.bus.Transfers++
		start, done = at, at+Cycles(lat)
	} else {
		start = at
		if f := e.bus.FreeAt(); f > start {
			start = f
		}
		done = e.bus.Start(at, lat)
	}
	e.busAccCy += done - start
	if e.probe != nil {
		e.probe.BusAcquire(start, line, kind)
		e.probe.BusRelease(done)
	}
	return done
}

// busFreeAt returns when a new transfer may start.
func (e *Engine) busFreeAt() Cycles {
	if e.cfg.PipelinedMemory {
		return 0
	}
	return e.bus.FreeAt()
}

// busBusy reports whether a new transfer must wait at cycle now.
func (e *Engine) busBusy(now Cycles) bool {
	if e.cfg.PipelinedMemory {
		return false
	}
	return e.bus.Busy(now)
}

// armTargetPrefetch records a branch-target prefetch candidate.
func (e *Engine) armTargetPrefetch(target isa.Addr) {
	e.targetCand = e.geom.Line(target)
	e.targetCandValid = true
}

// retireConds frees speculation slots whose branches have resolved by now.
func (e *Engine) retireConds(now Cycles) {
	for e.condHead < len(e.condSlots) && e.condSlots[e.condHead] <= now {
		e.condHead++
	}
	if e.condHead == len(e.condSlots) {
		e.condSlots = e.condSlots[:0]
		e.condHead = 0
	}
}

// condCount returns the number of in-flight correct-path conditionals.
func (e *Engine) condCount() int { return len(e.condSlots) - e.condHead }

// chargePhase describes one attribution interval of a stall: dead cycles
// strictly before `until` belong to `comp`.
type chargePhase struct {
	until Cycles
	comp  metrics.Component
}

// chargeStall accounts a stall: the current cycle e.cy issued slotsIssued
// useful instructions (its remaining slots are lost), cycles up to
// resumeAt-1 are fully lost, and fetch restarts at resumeAt. Each dead cycle
// is attributed to the first phase whose `until` exceeds it; the final
// phase's until must be >= resumeAt. In skip-ahead mode the accounting is
// done per interval (chargeStallJump); the per-cycle loop below is the
// reference it is verified against.
func (e *Engine) chargeStall(slotsIssued int, phases []chargePhase, resumeAt Cycles) {
	if e.cfg.StepMode == StepSkipAhead {
		e.chargeStallJump(slotsIssued, phases, resumeAt)
		return
	}
	w := Slots(e.cfg.FetchWidth)
	for c := e.cy; c < resumeAt; c++ {
		lost := w
		if c == e.cy {
			lost = w - Slots(slotsIssued)
		}
		comp := phases[len(phases)-1].comp
		for _, p := range phases {
			if c < p.until {
				comp = p.comp
				break
			}
		}
		e.res.Lost.Add(comp, lost)
	}
	if e.probe != nil {
		e.emitStallSegments(slotsIssued, phases, resumeAt)
	}
	e.cy = resumeAt
}

// emitStallSegments replays a stall's attribution as contiguous
// per-component probe segments (called only when a probe is attached).
func (e *Engine) emitStallSegments(slotsIssued int, phases []chargePhase, resumeAt Cycles) {
	if e.probe == nil {
		return
	}
	w := Slots(e.cfg.FetchWidth)
	segStart := e.cy
	var segComp metrics.Component
	var segSlots Slots
	haveSeg := false
	for c := e.cy; c < resumeAt; c++ {
		lost := w
		if c == e.cy {
			lost = w - Slots(slotsIssued)
		}
		comp := phases[len(phases)-1].comp
		for _, p := range phases {
			if c < p.until {
				comp = p.comp
				break
			}
		}
		if haveSeg && comp != segComp {
			e.probe.Stall(segStart, c, segComp, segSlots)
			segStart, segSlots = c, 0
		}
		segComp, haveSeg = comp, true
		segSlots += lost
	}
	if haveSeg {
		e.probe.Stall(segStart, resumeAt, segComp, segSlots)
	}
}

// lookupKind distinguishes what satisfied (or will satisfy) a line access.
type lookupKind int

const (
	lookupHit         lookupKind = iota
	lookupPendingFill            // the needed line is being filled right now
	lookupMiss
)

// lineLookup checks residency of line at cycle `now`, counting buffers whose
// fills have completed as resident (and committing them, as the paper writes
// buffered lines back at the next opportunity). When the needed line is in
// flight it returns lookupPendingFill with the completion time.
func (e *Engine) lineLookup(line uint64, now Cycles) (lookupKind, Cycles) {
	if e.ic.Access(line) {
		return lookupHit, 0
	}
	for _, bufs := range [2][]cache.LineBuffer{e.resumeBufs, e.prefBufs} {
		for i := range bufs {
			b := &bufs[i]
			if !b.Valid() || b.Line() != line {
				continue
			}
			if b.Ready(line, now) {
				b.CommitTo(e.ic, now)
				return lookupHit, 0
			}
			return lookupPendingFill, b.ReadyAt()
		}
	}
	return lookupMiss, 0
}

// commitCompletedBuffers writes any finished buffered fills into the cache
// array; the paper does this at the next I-cache miss.
func (e *Engine) commitCompletedBuffers(now Cycles) {
	for _, bufs := range [2][]cache.LineBuffer{e.resumeBufs, e.prefBufs} {
		for i := range bufs {
			if b := &bufs[i]; b.Valid() && now >= b.ReadyAt() {
				b.CommitTo(e.ic, now)
			}
		}
	}
}

// bufferedLine reports whether any fill buffer currently tracks line.
func (e *Engine) bufferedLine(line uint64) bool {
	for _, bufs := range [2][]cache.LineBuffer{e.resumeBufs, e.prefBufs} {
		for i := range bufs {
			if b := &bufs[i]; b.Valid() && b.Line() == line {
				return true
			}
		}
	}
	return false
}

// freeBuffer finds a usable buffer in bufs: an invalid one, or one whose
// fill completed (which is committed first). It returns nil when all are
// still in flight.
func (e *Engine) freeBuffer(bufs []cache.LineBuffer, now Cycles) *cache.LineBuffer {
	for i := range bufs {
		if !bufs[i].Valid() {
			return &bufs[i]
		}
	}
	for i := range bufs {
		if now >= bufs[i].ReadyAt() {
			bufs[i].CommitTo(e.ic, now)
			return &bufs[i]
		}
	}
	return nil
}

// recordMiss sets bit i of Result.MissBits, growing the bitmap to the word
// that holds it.
func (e *Engine) recordMiss(i int64) {
	w := int(i >> 6)
	for len(e.res.MissBits) <= w {
		e.res.MissBits = append(e.res.MissBits, 0)
	}
	e.res.MissBits[w] |= 1 << (i & 63)
}

// stepCycle simulates one fetch cycle (and any stall it runs into),
// advancing e.cy past everything it accounted for.
func (e *Engine) stepCycle() {
	width := e.cfg.FetchWidth
	e.retireConds(e.cy)
	e.prefCandValid = false
	e.targetCandValid = false
	if e.cfg.FlushInterval > 0 && e.res.Insts >= e.nextFlushAt {
		if e.nextFlushAt > 0 {
			e.ic.InvalidateAll()
		}
		e.nextFlushAt = e.res.Insts + e.cfg.FlushInterval
	}

	var groupLine uint64
	groupLineValid := false

	for slot := 0; slot < width; slot++ {
		if e.done() {
			e.finishCycle()
			return
		}
		in := e.peekInst()
		line := e.geom.Line(in.pc)

		if !groupLineValid || line != groupLine {
			// A structural reference is the instruction stream crossing into
			// a new line. It is counted exactly once per crossing — even if
			// a miss or stall forces the fetch to retry the same line next
			// cycle — so the reference sequence is policy independent and
			// classification can match runs up.
			structural := !e.haveLastLine || line != e.lastInstLine
			kind, readyAt := e.lineLookup(line, e.cy)
			if structural {
				e.lastInstLine = line
				e.haveLastLine = true
				e.res.RightPathAccesses++
				if kind == lookupMiss {
					e.res.RightPathMisses++
					if e.cfg.RecordMisses {
						e.recordMiss(e.res.RightPathAccesses - 1)
					}
				}
			} else if kind == lookupMiss {
				e.res.ReentryMisses++
			}
			switch kind {
			case lookupPendingFill:
				// The needed line is already on its way (wrong-path fill in
				// the resume buffer, or a prefetch). Wait for it: a bus-class
				// penalty in the paper's accounting.
				e.chargeStall(slot, []chargePhase{{until: readyAt, comp: metrics.Bus}}, readyAt)
				e.tryPrefetch(e.cy)
				return
			case lookupMiss:
				e.handleRightPathMiss(line, slot)
				return
			case lookupHit:
				// Fall out of the switch to the hit path below.
			}
			// Hit: maybe arm the next-line prefetcher.
			if e.cfg.NextLinePrefetch && e.ic.ConsumeFirstRef(line) {
				e.prefCand = line + 1
				e.prefCandValid = true
			}
			groupLine = line
			groupLineValid = true
		}

		if in.kind.IsConditional() && e.condCount()+e.wrongConds >= e.cfg.MaxUnresolved {
			// Speculation limit: stall until the oldest branch resolves.
			resumeAt := e.cy + 1
			if e.condCount() > 0 {
				resumeAt = e.condSlots[e.condHead]
			}
			if resumeAt <= e.cy {
				resumeAt = e.cy + 1
			}
			e.tryPrefetch(e.cy)
			e.chargeStall(slot, []chargePhase{{until: resumeAt, comp: metrics.BranchFull}}, resumeAt)
			return
		}

		// Issue the instruction.
		e.res.Insts++
		e.lastIssueCy = e.cy
		if e.res.Insts >= e.nextBoundary {
			e.boundary(e.snapshot(e.cy))
		}
		e.consumeInst()

		if in.kind.IsBranch() {
			if e.handleBranch(in, slot+1) {
				return // redirect window consumed the rest of the cycle
			}
			// Correctly predicted: the group continues at the new PC, which
			// may be on a different line; the loop re-checks residency.
			groupLineValid = false
			continue
		}
	}
	e.finishCycle()
}

// finishCycle issues a pending prefetch and advances to the next cycle.
func (e *Engine) finishCycle() {
	e.tryPrefetch(e.cy)
	e.cy++
}

// tryPrefetch issues at most one prefetch per cycle under the paper's
// conditions (candidate absent, bus free, previously prefetched line
// committed first). Candidates are considered in priority order: branch
// target (TargetPrefetch extension), next line (the paper's policy), then
// the sequential stream (StreamDepth extension).
func (e *Engine) tryPrefetch(now Cycles) {
	if !e.prefetchOn() {
		return
	}
	var cands [3]uint64
	n := 0
	streamIdx := -1
	if e.targetCandValid {
		cands[n] = e.targetCand
		n++
		e.targetCandValid = false
	}
	if e.prefCandValid {
		cands[n] = e.prefCand
		n++
		e.prefCandValid = false
	}
	if e.streamLeft > 0 {
		streamIdx = n
		cands[n] = e.streamNext
		n++
	}
	if n == 0 {
		return
	}
	buf := e.freeBuffer(e.prefBufs, now)
	if buf == nil {
		return // every prefetch buffer still in flight (bus busy anyway)
	}
	if e.busBusy(now) {
		return
	}
	for i := 0; i < n; i++ {
		cand := cands[i]
		if e.ic.Probe(cand) || e.bufferedLine(cand) {
			if i == streamIdx {
				// Skip past already-present stream lines.
				e.streamNext++
				e.streamLeft--
			}
			continue
		}
		done := e.busStartLine(now, cand, true, obs.FillPrefetch)
		buf.Set(cand, done)
		e.res.Traffic.PrefetchFills++
		if e.probe != nil {
			e.probe.Prefetch(now, cand, done)
			e.probe.FillComplete(done, cand, obs.FillPrefetch)
		}
		if i == streamIdx {
			e.streamNext++
			e.streamLeft--
		}
		return
	}
}

// handleRightPathMiss models a demand miss on the correct path at the
// current cycle, after slotsIssued instructions already issued this cycle.
func (e *Engine) handleRightPathMiss(line uint64, slotsIssued int) {
	now := e.cy
	if e.probe != nil {
		e.probe.MissStart(now, line, false)
	}

	// Policy gating before the fill may start.
	gate := now
	switch e.active {
	case Pessimistic:
		if g := e.lastIssueCy + Cycles(e.cfg.DecodeLatency); g > gate {
			gate = g
		}
		if n := len(e.condSlots); n > e.condHead && e.condSlots[n-1] > gate {
			gate = e.condSlots[n-1]
		}
	case Decode:
		if g := e.lastIssueCy + Cycles(e.cfg.DecodeLatency); g > gate {
			gate = g
		}
	case Oracle, Optimistic, Resume:
		// No gate: the fill starts as soon as the bus allows.
	case Adaptive:
		// Unreachable: the engine resolves Adaptive to a static active
		// policy at construction and every boundary.
		panic("core: adaptive meta-policy leaked into miss handling")
	}

	fillStart := gate
	if f := e.busFreeAt(); f > fillStart {
		fillStart = f
	}
	fillDone := e.busStartLine(fillStart, line, true, obs.FillDemand)
	if e.probe != nil {
		e.probe.FillComplete(fillDone, line, obs.FillDemand)
	}

	// The stream-prefetch extension re-arms on every right-path demand
	// fill, like a stream buffer allocated on a miss.
	if e.cfg.StreamDepth > 0 {
		e.streamNext = line + 1
		e.streamLeft = e.cfg.StreamDepth
	}

	// The paper writes buffered lines into the array at the next miss.
	e.commitCompletedBuffers(now)
	e.ic.Fill(line)
	e.res.Traffic.DemandFills++

	e.chargeStall(slotsIssued, []chargePhase{
		{until: gate, comp: metrics.ForceResolve},
		{until: fillStart, comp: metrics.Bus},
		{until: fillDone, comp: metrics.RTICache},
	}, fillDone)
}

// eventClass labels a redirect for Table 3 accounting.
type eventClass int

const (
	evPHTMispredict eventClass = iota
	evBTBMisfetch
	evBTBMispredict
)

// redirectKind maps the Table 3 event class onto the probe vocabulary.
func (ev eventClass) redirectKind() obs.RedirectKind {
	switch ev {
	case evPHTMispredict:
		return obs.RedirectPHTMispredict
	case evBTBMisfetch:
		return obs.RedirectBTBMisfetch
	default:
		return obs.RedirectBTBMispredict
	}
}

// handleBranch processes a just-issued correct-path branch. slotsIssued is
// the number of instructions issued this cycle including the branch. It
// returns true when a redirect window consumed the rest of the cycle.
func (e *Engine) handleBranch(in instInfo, slotsIssued int) bool {
	e.res.Branches++
	now := e.cy
	fallThrough := in.pc.Next()
	decodeAt := now + Cycles(e.cfg.DecodeLatency)
	resolveAt := now + 1 + Cycles(e.cfg.ResolveLatency)

	predTarget, btbHit := e.pred.PredictTarget(in.pc)

	if in.kind.IsConditional() {
		e.res.CondBranches++
		e.condSlots = append(e.condSlots, resolveAt)
		e.queueResolve(resolveUpdate{at: resolveAt, pc: in.pc, taken: in.taken})
		predTaken := e.pred.PredictCond(in.pc)
		staticTarget := e.img.At(in.pc).Target
		if e.probe != nil {
			e.probe.BranchResolve(resolveAt, uint64(in.pc), in.taken, predTaken != in.taken)
		}
		if e.cfg.TargetPrefetch {
			e.armTargetPrefetch(staticTarget)
		}
		if predTaken {
			// Decode-time speculative BTB insert of the (computed) target.
			e.queueBTB(btbUpdate{at: decodeAt, pc: in.pc, target: staticTarget})
		}
		switch {
		case predTaken == in.taken && !predTaken:
			return false // correctly predicted fall-through
		case predTaken == in.taken && btbHit:
			return false // correctly predicted taken with target available
		case predTaken && in.taken && !btbHit:
			// Right direction, no target: misfetch. Fall-through is fetched
			// until decode computes the target.
			e.runWindow(slotsIssued, evBTBMisfetch, []wpPhase{
				{start: fallThrough, until: now + 1 + Cycles(e.cfg.DecodeLatency), misfetch: true},
			}, in.target)
			return true
		case predTaken && !in.taken && btbHit:
			// Wrong direction: fetch runs down the taken target until resolve.
			e.runWindow(slotsIssued, evPHTMispredict, []wpPhase{
				{start: predTarget, until: now + 1 + Cycles(e.cfg.ResolveLatency)},
			}, fallThrough)
			return true
		case predTaken && !in.taken && !btbHit:
			// Wrong direction and no target: sequential fetch until decode
			// computes the target, then down the (wrong) taken path until
			// resolve.
			e.runWindow(slotsIssued, evPHTMispredict, []wpPhase{
				{start: fallThrough, until: now + 1 + Cycles(e.cfg.DecodeLatency), misfetch: true},
				{start: staticTarget, until: now + 1 + Cycles(e.cfg.ResolveLatency)},
			}, fallThrough)
			return true
		default:
			// Predicted fall-through, actually taken: classic mispredict.
			e.runWindow(slotsIssued, evPHTMispredict, []wpPhase{
				{start: fallThrough, until: now + 1 + Cycles(e.cfg.ResolveLatency)},
			}, in.target)
			return true
		}
	}

	// Unconditional transfers: always taken.
	if in.kind.IsIndirect() {
		e.queueResolve(resolveUpdate{
			at: resolveAt, pc: in.pc, indirect: true, target: in.target, taken: true,
		})
		if e.cfg.TargetPrefetch && btbHit {
			e.armTargetPrefetch(predTarget)
		}
		if e.ras != nil {
			if in.kind == isa.IndirectCall {
				e.ras.Push(fallThrough)
			}
			if in.kind == isa.Return {
				// The RAS prediction replaces the BTB target. Whether the
				// instruction is identified as a branch at fetch time still
				// depends on the BTB (predecode identification); on a BTB
				// miss the misfetch path below applies regardless.
				if ret, ok := e.ras.Pop(); ok {
					predTarget = ret
				}
			}
		}
		if e.probe != nil {
			e.probe.BranchResolve(resolveAt, uint64(in.pc), true, !(btbHit && predTarget == in.target))
		}
		switch {
		case btbHit && predTarget == in.target:
			return false
		case btbHit:
			// Stale target: fetch runs down the old target until resolve.
			e.runWindow(slotsIssued, evBTBMispredict, []wpPhase{
				{start: predTarget, until: now + 1 + Cycles(e.cfg.ResolveLatency)},
			}, in.target)
			return true
		default:
			// Not identified as a branch: sequential fetch until decode.
			e.runWindow(slotsIssued, evBTBMisfetch, []wpPhase{
				{start: fallThrough, until: now + 1 + Cycles(e.cfg.DecodeLatency), misfetch: true},
			}, in.target)
			return true
		}
	}

	// Direct unconditional (jump/call).
	e.queueBTB(btbUpdate{at: decodeAt, pc: in.pc, target: in.target})
	if e.cfg.TargetPrefetch {
		e.armTargetPrefetch(in.target)
	}
	if e.ras != nil && in.kind == isa.Call {
		e.ras.Push(fallThrough)
	}
	if btbHit {
		return false
	}
	e.runWindow(slotsIssued, evBTBMisfetch, []wpPhase{
		{start: fallThrough, until: now + 1 + Cycles(e.cfg.DecodeLatency), misfetch: true},
	}, in.target)
	return true
}
