package adaptive

import (
	"fmt"
	"strconv"
	"strings"

	"specfetch/internal/core"
)

// Phase is the flush-phase chooser: the strategy built for periodic
// workloads, where Config.FlushInterval invalidates the I-cache every N
// correct-path instructions and the windows between two flushes form a
// repeating phase of period FlushInterval/AdaptInterval windows. The
// windows right after a flush are refill windows — the cache is cold and
// the conservative policies (the paper's resume regime) tend to win — while
// the later windows run warm, where the aggressive policies earn their
// keep. Phase therefore learns a per-class answer: it splits each period
// into a cold class (the first third of the positions) and a warm class
// (the rest) and runs an independent selection race in each class.
//
// Two measurement rules make the race winnable at all. First, every window
// is scored relative to the running mean cost of its own phase position,
// which cancels the common-mode noise and the enormous cold-vs-warm cost
// difference; raw costs would bury a few-percent policy gap. Second, the
// unit of decision is never a single window but a class block — the
// contiguous run of same-class windows inside one period (the cold block,
// then the warm block). A policy switch perturbs the cache state the next
// window inherits, so a one-window probe pays the whole transition bill in
// its only scored window and systematically reads worse than the incumbent
// — probing at window granularity converges to the incumbent everywhere.
// A block probe serves the entire block, amortizes the transition exactly
// the way a committed schedule would, and therefore measures the thing
// deployment actually buys.
//
// The schedule has three stages. A short warm-up holds one arm while the
// simulated machine itself warms (nothing is scored — the first windows of
// a run are unrepresentative while the L2 fills). The opening rotates all
// five arms block-by-block on a fixed modulus — the modulus never re-keys
// as arms drop out, so an arm's visits stay spread over both classes and
// no arm's score is confounded with a class subset — and eliminates
// hopeless arms early on a pooled z-test. The survivors (cut to the pooled
// top three) seed both classes, and each class then races its slate down
// to two, follows its leader, and probes the runner(s) at a block spacing
// that backs off as the leader's margin becomes statistically clear. Close
// calls keep being probed; settled ones are probed rarely, so the probe
// overhead anneals toward zero exactly where adaptation has nothing left
// to learn.
//
// Everything is a deterministic function of the window digests: no seed,
// no clocks, no map iteration. The name syntax is "phase:<period>"
// (windows per flush period, from 2 to MaxPhasePeriod); plain "phase"
// means phase:6, the shipped study geometry (FlushInterval 15000 over
// AdaptInterval 2500).
const (
	phaseWarmup   = 48 // unscored lead-in windows (cold L2, empty BTB)
	phasePerArm   = 10 // pooled opening block samples per surviving arm
	phaseOpenZ2   = 8  // pooled z^2 that eliminates an arm in the opening
	phaseOpenMin  = 4  // pooled block samples per arm before elimination
	phaseClassMin = 6  // class block samples per arm before the race cut
	phaseRaceZ2   = 4  // z^2 that drops the trailing third arm in a class
	phaseBootMin  = 2  // class samples below which a slate arm runs next
)

// MaxPhasePeriod bounds the windows per flush period a Phase chooser
// accepts. Its per-position baselines take 16 bytes a window, so the bound
// keeps a strategy name (which arrives from the wire and the command line)
// from asking for more than 1 MiB; a real study has a handful of windows
// per period.
const MaxPhasePeriod = 1 << 16

// relStat is a running mean/variance accumulator of position-relative
// block scores.
type relStat struct {
	n, sum, sq float64
}

func (s *relStat) add(v float64) { s.n++; s.sum += v; s.sq += v * v }
func (s *relStat) mean() float64 { return s.sum / s.n }
func (s *relStat) varm() float64 { m := s.mean(); return s.sq/s.n - m*m }

// zsq returns the signed mean gap a-b and its squared z statistic under
// the two-sample normal approximation. Below two samples a side there is
// no variance estimate, so the answer is "no evidence".
func zsq(a, b *relStat) (gap, z2 float64) {
	if a.n < 2 || b.n < 2 {
		return 0, 0
	}
	gap = a.mean() - b.mean()
	se2 := a.varm()/a.n + b.varm()/b.n
	if se2 <= 0 {
		return gap, 0
	}
	return gap, gap * gap / se2
}

// Phase is the flush-phase chooser state machine. See the package comment
// above for the stage structure; the zero value is not usable — build one
// with NewPhase.
type Phase struct {
	arms    []core.Policy
	period  int64
	coldLen int64

	// per-position running cost means: the common-mode baseline every
	// window score is taken relative to
	posSum, posCnt []float64

	// current block: the arm serving it and the accumulating score
	curArm   int
	blockAcc float64
	blockCnt float64

	warmupDone bool
	opening    bool
	openBlocks int64
	openStat   []relStat
	openAlive  []bool
	openLeft   int

	// per class (0 warm, 1 cold): the surviving slate in rank-seeded
	// order, its block-score stats, and the probe clocks
	slate   [2][]int
	tracked [2][]bool
	clsStat [2][]relStat
	probeT  [2]int64
	probeI  [2]int
}

// NewPhase builds the flush-phase chooser for a phase of period windows
// (the flush interval divided by the adapt interval, 2 to MaxPhasePeriod).
func NewPhase(period int64) (*Phase, error) {
	if period < 2 {
		return nil, fmt.Errorf("adaptive: phase period %d: need at least 2 windows per flush period", period)
	}
	if period > MaxPhasePeriod {
		return nil, fmt.Errorf("adaptive: phase period %d: at most %d windows per flush period", period, MaxPhasePeriod)
	}
	a := arms()
	cl := (period + 2) / 3
	if cl >= period {
		cl = period - 1
	}
	p := &Phase{
		arms: a, period: period, coldLen: cl,
		posSum: make([]float64, period), posCnt: make([]float64, period),
		opening:   true,
		openStat:  make([]relStat, len(a)),
		openAlive: make([]bool, len(a)),
		openLeft:  len(a),
	}
	for i := range p.openAlive {
		p.openAlive[i] = true
	}
	for c := 0; c < 2; c++ {
		p.clsStat[c] = make([]relStat, len(a))
		p.tracked[c] = make([]bool, len(a))
		for i := range p.tracked[c] {
			p.tracked[c][i] = true
		}
	}
	return p, nil
}

// class maps a phase position to its class index: 1 (cold) for the refill
// positions right after a flush, 0 (warm) for the rest.
func (p *Phase) class(pos int64) int {
	if pos < p.coldLen {
		return 1
	}
	return 0
}

// armIndex maps a policy to its slot in the arm order. Unknown policies
// (impossible from a well-behaved engine) score as arm 0.
func (p *Phase) armIndex(pol core.Policy) int {
	for i, a := range p.arms {
		if a == pol {
			return i
		}
	}
	return 0
}

// ranked returns the class slate ordered best-first by relative mean.
// Arms without samples keep their slate position.
func (p *Phase) ranked(cls int) []int {
	out := append([]int(nil), p.slate[cls]...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := &p.clsStat[cls][out[j-1]], &p.clsStat[cls][out[j]]
			if a.n > 0 && b.n > 0 && b.mean() < a.mean() {
				out[j-1], out[j] = out[j], out[j-1]
			}
		}
	}
	return out
}

// First starts the run on arm 0 (the presentation-order first policy).
func (p *Phase) First() core.Policy { return p.arms[0] }

// Decide consumes one completed window and answers the policy for the
// next one. Within a class block it always answers the block's arm; at a
// block boundary it banks the block's score and schedules the next block.
func (p *Phase) Decide(w core.AdaptWindow) core.Policy {
	idx := int64(w.Index)
	pos := idx % p.period
	active := p.armIndex(w.Active)
	c := w.LostPerInst()

	// Score the window relative to its position's running mean into the
	// current block; the first visit to a position has no baseline and
	// goes unscored. Nothing in the warm-up region is scored at all.
	warm := idx >= phaseWarmup
	if warm && p.posCnt[pos] > 0 {
		p.blockAcc += c - p.posSum[pos]/p.posCnt[pos]
		p.blockCnt++
	}
	if warm {
		p.posCnt[pos]++
		p.posSum[pos] += c
	}

	cls := p.class(pos)
	ncls := p.class((idx + 1) % p.period)
	if ncls == cls {
		// Mid-block: the block's arm keeps serving. (Trust the digest
		// over our own bookkeeping in case the engine restarted a run.)
		p.curArm = active
		return p.arms[p.curArm]
	}

	// Block boundary: bank the finished block's mean score.
	if p.blockCnt > 0 {
		s := p.blockAcc / p.blockCnt
		if p.opening {
			p.openStat[active].add(s)
		}
		if p.tracked[cls][active] {
			p.clsStat[cls][active].add(s)
		}
	}
	p.blockAcc, p.blockCnt = 0, 0

	if !p.warmupDone {
		if idx+1 < phaseWarmup {
			// Stream warm-up: hold one reasonable arm. Nothing is scored
			// yet, so a round-robin here would only buy noise.
			p.curArm = 0
			return p.arms[0]
		}
		p.warmupDone = true
	}
	if p.opening {
		if next, deciding := p.openingNext(); deciding {
			p.curArm = next
			return p.arms[next]
		}
	}

	// Bootstrap: a slate arm with almost no block samples in this class
	// runs next, so the race below never judges an unsampled arm.
	for _, a := range p.slate[ncls] {
		if p.clsStat[ncls][a].n < phaseBootMin {
			p.curArm = a
			return p.arms[a]
		}
	}
	// In-class race: drop the trailing third arm once it is clearly
	// behind the class leader.
	if len(p.slate[ncls]) > 2 {
		r := p.ranked(ncls)
		last, lead := r[len(r)-1], r[0]
		ls, hs := &p.clsStat[ncls][last], &p.clsStat[ncls][lead]
		if ls.n >= phaseClassMin && hs.n >= phaseClassMin {
			if gap, z2 := zsq(ls, hs); gap > 0 && z2 >= phaseRaceZ2 {
				kept := p.slate[ncls][:0]
				for _, a := range p.slate[ncls] {
					if a != last {
						kept = append(kept, a)
					}
				}
				p.slate[ncls] = kept
				p.tracked[ncls][last] = false
			}
		}
	}
	// Follow the class leader; probe the runner(s) at a block spacing
	// that backs off as the top-two separation becomes statistically
	// clear.
	r := p.ranked(ncls)
	_, z2 := zsq(&p.clsStat[ncls][r[0]], &p.clsStat[ncls][r[1]])
	spacing := int64(5)
	switch {
	case z2 >= 8:
		spacing = 81
	case z2 >= 2:
		spacing = 27
	case z2 >= 0.5:
		spacing = 9
	}
	p.probeT[ncls]++
	a := r[0]
	if p.probeT[ncls]%spacing == 0 {
		p.probeI[ncls]++
		a = r[1+p.probeI[ncls]%(len(r)-1)]
	}
	p.curArm = a
	return p.arms[a]
}

// openingNext advances the opening schedule by one block. It returns the
// next block's arm and true while the opening is still running; once every
// surviving arm has its block quota it seeds both class slates, flips to
// the racing stage, and returns false so Decide falls through to the class
// logic at the same boundary.
func (p *Phase) openingNext() (int, bool) {
	p.openBlocks++
	// Pooled sequential elimination: once past the first full rotation,
	// any arm clearly behind the pooled leader stops burning blocks. At
	// most two arms die here — three always survive to the class races.
	if p.openBlocks >= int64(len(p.arms)) {
		lead := -1
		for i := range p.arms {
			if p.openAlive[i] && p.openStat[i].n >= phaseOpenMin &&
				(lead < 0 || p.openStat[i].mean() < p.openStat[lead].mean()) {
				lead = i
			}
		}
		if lead >= 0 && p.openLeft > 3 {
			for i := range p.arms {
				if !p.openAlive[i] || i == lead || p.openLeft <= 3 {
					continue
				}
				st := &p.openStat[i]
				if st.n < phaseOpenMin {
					continue
				}
				if gap, z2 := zsq(st, &p.openStat[lead]); gap > 0 && z2 >= phaseOpenZ2 {
					p.openAlive[i] = false
					p.openLeft--
				}
			}
		}
	}
	done := true
	for i := range p.arms {
		if p.openAlive[i] && p.openStat[i].n < phasePerArm {
			done = false
		}
	}
	if !done {
		// Fixed-modulus rotation over the ORIGINAL slate: the arm:block
		// mapping never re-keys as arms die (the five-arm modulus against
		// the two-class block alternation spreads every arm over both
		// classes); an eliminated arm's slot goes to the pooled leader.
		a := int(p.openBlocks) % len(p.arms)
		if !p.openAlive[a] {
			best := -1
			for i := range p.arms {
				if p.openAlive[i] && (best < 0 ||
					(p.openStat[i].n > 0 && p.openStat[i].mean() < p.openStat[best].mean())) {
					best = i
				}
			}
			a = best
		}
		return a, true
	}
	// Survivors, cut to the pooled top three, seed both class slates in
	// rank order (the rank seeds the race and follow-the-leader stages).
	var ranked []int
	for i := range p.arms {
		if p.openAlive[i] {
			ranked = append(ranked, i)
		}
	}
	for i := 1; i < len(ranked); i++ {
		for j := i; j > 0; j-- {
			if p.openStat[ranked[j]].mean() < p.openStat[ranked[j-1]].mean() {
				ranked[j-1], ranked[j] = ranked[j], ranked[j-1]
			}
		}
	}
	if len(ranked) > 3 {
		ranked = ranked[:3]
	}
	for c := 0; c < 2; c++ {
		p.slate[c] = append([]int(nil), ranked...)
		for i := range p.arms {
			p.tracked[c][i] = false
		}
		for _, a := range ranked {
			p.tracked[c][a] = true
		}
	}
	p.opening = false
	return 0, false
}

// parsePhase recognizes "phase" and "phase:<period>" strategy names. On an
// error the chooser is a nil interface, not a nil *Phase.
func parsePhase(name string) (core.Chooser, bool, error) {
	if name == "phase" {
		ch, err := NewPhase(6)
		return ch, true, err
	}
	rest, ok := strings.CutPrefix(name, "phase:")
	if !ok {
		return nil, false, nil
	}
	period, err := strconv.ParseInt(rest, 10, 64)
	if err != nil {
		return nil, true, fmt.Errorf("adaptive: phase period %q: %v", rest, err)
	}
	ch, err := NewPhase(period)
	if err != nil {
		return nil, true, err
	}
	return ch, true, nil
}
