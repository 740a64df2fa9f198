// Package cache implements the instruction-cache and memory-interface
// substrate: a set-associative (paper: direct-mapped) I-cache with
// first-reference bits for next-line prefetching, a single-channel memory
// bus, and the one-line resume/prefetch buffers the paper's Resume policy
// and prefetcher require.
package cache

import (
	"fmt"
	"math/bits"

	"specfetch/internal/isa"
	"specfetch/internal/metrics"
)

// Config sizes an instruction cache.
type Config struct {
	// SizeBytes is the total capacity; must be a power of two.
	SizeBytes int
	// LineBytes is the line size; must be a power of two.
	LineBytes int
	// Assoc is the set associativity; the paper uses 1 (direct mapped).
	Assoc int
	// VictimLines, when positive, adds a fully associative victim buffer
	// of that many lines (Jouppi): evicted lines are parked there and a
	// miss that hits the victim buffer swaps the line back in without a
	// memory transfer. Extension beyond the paper; 0 disables it.
	VictimLines int
}

// DefaultConfig is the paper's baseline 8KB direct-mapped cache with
// 32-byte lines.
func DefaultConfig() Config {
	return Config{SizeBytes: 8 * 1024, LineBytes: isa.DefaultLineBytes, Assoc: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache: size %d not a positive power of two", c.SizeBytes)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache: line size %d not a positive power of two", c.LineBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cache: associativity %d not positive", c.Assoc)
	case c.LineBytes > c.SizeBytes || (c.SizeBytes/c.LineBytes)%c.Assoc != 0:
		// Checked by division: line*assoc overflows to 0 for huge values.
		return fmt.Errorf("cache: size %d not divisible by line %d * assoc %d", c.SizeBytes, c.LineBytes, c.Assoc)
	case c.VictimLines < 0:
		return fmt.Errorf("cache: negative victim buffer size %d", c.VictimLines)
	}
	nsets := c.NumSets()
	if nsets&(nsets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	return nil
}

// NumSets returns the number of sets.
func (c Config) NumSets() int { return c.SizeBytes / (c.LineBytes * c.Assoc) }

// NumLines returns the total line count.
func (c Config) NumLines() int { return c.SizeBytes / c.LineBytes }

type way struct {
	valid bool
	tag   uint64
	// firstRef is the paper's one-bit next-line prefetch trigger: set when
	// the line is first loaded, cleared by the first fetch that consumes it.
	firstRef bool
	lru      uint64
}

// ICache is a set-associative instruction cache over line numbers (byte
// address / line size). It holds no timing state; the fetch engine owns time.
type ICache struct {
	cfg  Config
	sets [][]way
	// nsets is a power of two (validated); setMask/tagShift turn the
	// set/tag split into mask-and-shift instead of hardware divides.
	nsets    uint64
	setMask  uint64
	tagShift uint
	clock    uint64
	// epoch is a monotone token for the array's residency state: it advances
	// on every event that can change which lines are resident (fills,
	// invalidations, resets) and never repeats within one cache instance.
	// Callers that prove "lines L..L+k are all resident" may reuse that proof
	// for as long as Epoch is unchanged. It starts at 1 so a zeroed external
	// memo entry can never appear current.
	epoch uint64
	// victim is the optional fully associative victim buffer (LRU).
	victim []victimEntry

	// Counters (structural, not timing).
	Accesses uint64
	Misses   uint64
	Fills    uint64
	// VictimHits counts misses satisfied by the victim buffer.
	VictimHits uint64
}

// victimEntry is one parked eviction.
type victimEntry struct {
	line uint64
	lru  uint64
}

// New builds an empty cache.
func New(cfg Config) (*ICache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := make([][]way, cfg.NumSets())
	for i := range sets {
		sets[i] = make([]way, cfg.Assoc)
	}
	nsets := uint64(cfg.NumSets())
	c := &ICache{
		cfg: cfg, sets: sets, nsets: nsets,
		setMask:  nsets - 1,
		tagShift: uint(bits.TrailingZeros64(nsets)),
		epoch:    1,
	}
	if cfg.VictimLines > 0 {
		c.victim = make([]victimEntry, 0, cfg.VictimLines)
	}
	return c, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config) *ICache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *ICache) Config() Config { return c.cfg }

// Geom returns the line geometry helper for this cache.
func (c *ICache) Geom() isa.LineGeom { return isa.LineGeom{LineBytes: c.cfg.LineBytes} }

func (c *ICache) setTag(line uint64) (uint64, uint64) {
	return line & c.setMask, line >> c.tagShift
}

// find returns the way holding line, or nil.
func (c *ICache) find(line uint64) *way {
	set, tag := c.setTag(line)
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if w.valid && w.tag == tag {
			return w
		}
	}
	return nil
}

// Access looks line up as a demand fetch: it updates LRU state and the
// hit/miss counters, and reports whether the line is resident. A miss that
// hits the victim buffer swaps the line back into the array (displacing the
// set's LRU way into the buffer) and counts as a hit.
func (c *ICache) Access(line uint64) bool {
	c.Accesses++
	if w := c.find(line); w != nil {
		c.clock++
		w.lru = c.clock
		return true
	}
	if c.victimTake(line) {
		c.fillNoCount(line)
		c.VictimHits++
		return true
	}
	c.Misses++
	return false
}

// victimFind returns the victim-buffer index of line, or -1.
func (c *ICache) victimFind(line uint64) int {
	for i := range c.victim {
		if c.victim[i].line == line {
			return i
		}
	}
	return -1
}

// victimTake removes line from the victim buffer if present.
func (c *ICache) victimTake(line uint64) bool {
	if i := c.victimFind(line); i >= 0 {
		c.victim = append(c.victim[:i], c.victim[i+1:]...)
		return true
	}
	return false
}

// victimInsert parks an evicted line, displacing the oldest entry if full.
func (c *ICache) victimInsert(line uint64) {
	if cap(c.victim) == 0 {
		return
	}
	if i := c.victimFind(line); i >= 0 {
		c.victim[i].lru = c.clock
		return
	}
	if len(c.victim) < cap(c.victim) {
		c.victim = append(c.victim, victimEntry{line: line, lru: c.clock})
		return
	}
	oldest := 0
	for i := range c.victim {
		if c.victim[i].lru < c.victim[oldest].lru {
			oldest = i
		}
	}
	c.victim[oldest] = victimEntry{line: line, lru: c.clock}
}

// Probe reports residency (array or victim buffer) without disturbing LRU
// or counters. The prefetcher uses it to test "line i+1 already in cache".
func (c *ICache) Probe(line uint64) bool {
	return c.find(line) != nil || c.victimFind(line) >= 0
}

// ProbeArray reports residency in the cache array alone — no victim-buffer
// consultation, no LRU or counter side effects. The skip-ahead engine uses
// it to test whether a run of consecutive fetches would all hit trivially: a
// victim-buffer hit has side effects (the swap back into the array), so such
// lines must go through Access instead.
func (c *ICache) ProbeArray(line uint64) bool { return c.find(line) != nil }

// WayHandle is an opaque reference to the array way holding a line. A
// ProbeWay/TouchWay pair costs one tag lookup where ProbeArray followed by
// Touch costs two; handles stay valid only until the next Fill, invalidation,
// or Reset, so callers must not hold them across such calls.
type WayHandle *way

// ProbeWay is ProbeArray returning the way itself (nil when the line is not
// in the array), for callers that will touch the line after probing it.
func (c *ICache) ProbeWay(line uint64) WayHandle { return WayHandle(c.find(line)) }

// TouchWay applies n consecutive demand hits to a previously probed way:
// the state change n hitting Access calls would make (Accesses += n, LRU
// clock += n, recency set to the final clock — intermediate clock values are
// unobservable because no other access interleaves).
func (c *ICache) TouchWay(h WayHandle, n int) {
	if n <= 0 {
		return
	}
	c.Accesses += uint64(n)
	c.clock += uint64(n)
	(*way)(h).lru = c.clock
}

// Epoch returns the current residency token (see the field comment).
func (c *ICache) Epoch() uint64 { return c.epoch }

// BulkHits applies n demand hits whose residency the caller has already
// proven under the current Epoch, without resolving any way: Accesses and the
// LRU clock advance by n and nothing else changes. The touched ways' recency
// is deliberately left stale, which is only sound for a direct-mapped cache
// (Assoc == 1), where victim selection never consults recency; callers on
// associative geometries must use TouchWay/Touch instead.
func (c *ICache) BulkHits(n int) {
	if n <= 0 {
		return
	}
	c.Accesses += uint64(n)
	c.clock += uint64(n)
}

// Touch applies n consecutive demand hits to a line resident in the array:
// exactly the state change n Access(line) calls would make when every one
// hits (Accesses += n, LRU clock += n, the way's recency set to the final
// clock — intermediate clock values are unobservable because no other access
// interleaves). It reports false, changing nothing, when the line is not in
// the array; the caller must then fall back to per-access simulation.
func (c *ICache) Touch(line uint64, n int) bool {
	w := c.find(line)
	if w == nil {
		return false
	}
	if n <= 0 {
		return true
	}
	c.Accesses += uint64(n)
	c.clock += uint64(n)
	w.lru = c.clock
	return true
}

// Fill installs line, evicting the set's LRU way if needed (into the victim
// buffer when one is configured), and sets the line's first-reference bit.
// It reports the evicted line, if any.
func (c *ICache) Fill(line uint64) (evicted uint64, hadEviction bool) {
	c.Fills++
	c.victimTake(line) // a line entering the array leaves the buffer
	return c.fillNoCount(line)
}

// fillNoCount is Fill without the fill counter (victim swaps reuse it).
func (c *ICache) fillNoCount(line uint64) (evicted uint64, hadEviction bool) {
	set, tag := c.setTag(line)
	c.epoch++
	c.clock++
	if w := c.find(line); w != nil {
		// Refill of a resident line (can happen when a stale buffered fill
		// commits); just refresh recency.
		w.lru = c.clock
		w.firstRef = true
		return 0, false
	}
	victim := 0
	for i := range c.sets[set] {
		w := &c.sets[set][i]
		if !w.valid {
			victim = i
			break
		}
		if w.lru < c.sets[set][victim].lru {
			victim = i
		}
	}
	v := &c.sets[set][victim]
	if v.valid {
		evicted = v.tag<<c.tagShift | set
		hadEviction = true
		c.victimInsert(evicted)
	}
	*v = way{valid: true, tag: tag, firstRef: true, lru: c.clock}
	return evicted, hadEviction
}

// ConsumeFirstRef reports whether line's first-reference bit was set, and
// clears it. A fetch from a line whose bit was set triggers the next-line
// prefetch consideration.
func (c *ICache) ConsumeFirstRef(line uint64) bool {
	if w := c.find(line); w != nil && w.firstRef {
		w.firstRef = false
		return true
	}
	return false
}

// MissRate returns misses/accesses so far.
func (c *ICache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// InvalidateAll empties the array and the victim buffer without touching
// the counters — the effect of a context switch on a physically-indexed
// instruction cache.
func (c *ICache) InvalidateAll() {
	c.epoch++
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = way{}
		}
	}
	c.victim = c.victim[:0]
}

// Reset invalidates every line and zeroes the counters. The residency epoch
// is advanced, not rewound: it is a validity token, not a statistic, and must
// never repeat within one instance.
func (c *ICache) Reset() {
	c.epoch++
	for i := range c.sets {
		for j := range c.sets[i] {
			c.sets[i][j] = way{}
		}
	}
	c.clock = 0
	c.victim = c.victim[:0]
	c.Accesses, c.Misses, c.Fills, c.VictimHits = 0, 0, 0, 0
}

// Bus is the single channel between the I-cache and the next memory level.
// One transfer (demand fill or prefetch) occupies it for the full miss
// penalty; the paper's contention effects (Resume's bus component, prefetch
// blocking a demand miss) all come from this serialization.
type Bus struct {
	freeAt metrics.Cycles
	// Transfers counts line movements over the bus — the paper's memory
	// traffic metric.
	Transfers uint64
}

// FreeAt returns the first cycle at which a new transfer may start.
func (b *Bus) FreeAt() metrics.Cycles { return b.freeAt }

// Busy reports whether the bus is occupied at cycle now.
func (b *Bus) Busy(now metrics.Cycles) bool { return now < b.freeAt }

// Start begins a transfer of the given duration at the later of now and the
// bus becoming free; it returns the completion cycle.
func (b *Bus) Start(now metrics.Cycles, duration int) metrics.Cycles {
	start := now
	if b.freeAt > start {
		start = b.freeAt
	}
	b.freeAt = start + metrics.Cycles(duration)
	b.Transfers++
	return b.freeAt
}

// Reset clears occupancy and counters.
func (b *Bus) Reset() { b.freeAt = 0; b.Transfers = 0 }

// LineBuffer models a one-line holding register with a completion time: the
// resume buffer and the prefetch buffer. The buffered line counts as
// "present" for lookups once its fill completes, until it is committed into
// the cache array.
type LineBuffer struct {
	valid   bool
	line    uint64
	readyAt metrics.Cycles
}

// Set records a fill in flight for line, completing at readyAt.
func (lb *LineBuffer) Set(line uint64, readyAt metrics.Cycles) {
	lb.valid = true
	lb.line = line
	lb.readyAt = readyAt
}

// Valid reports whether the buffer holds (or is receiving) a line.
func (lb *LineBuffer) Valid() bool { return lb.valid }

// Line returns the buffered line number (meaningful only when Valid).
func (lb *LineBuffer) Line() uint64 { return lb.line }

// ReadyAt returns the fill completion cycle (meaningful only when Valid).
func (lb *LineBuffer) ReadyAt() metrics.Cycles { return lb.readyAt }

// Ready reports whether the buffer holds line and its fill has completed by
// cycle now.
func (lb *LineBuffer) Ready(line uint64, now metrics.Cycles) bool {
	return lb.valid && lb.line == line && now >= lb.readyAt
}

// Pending reports whether the buffer is receiving line but the fill has not
// completed by now.
func (lb *LineBuffer) Pending(now metrics.Cycles) bool { return lb.valid && now < lb.readyAt }

// Clear empties the buffer.
func (lb *LineBuffer) Clear() { *lb = LineBuffer{} }

// CommitTo writes the buffered line into the cache (if complete) and clears
// the buffer. It reports whether a commit happened.
func (lb *LineBuffer) CommitTo(c *ICache, now metrics.Cycles) bool {
	if !lb.valid || now < lb.readyAt {
		return false
	}
	c.Fill(lb.line)
	lb.Clear()
	return true
}
