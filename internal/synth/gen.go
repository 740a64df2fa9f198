package synth

import (
	"fmt"

	"specfetch/internal/isa"
	"specfetch/internal/program"
	"specfetch/internal/xrand"
)

// condMeta is the dynamic behaviour of one conditional-branch site.
type condMeta struct {
	// takenP is the per-execution probability the branch is taken, used
	// when pattern is nil.
	takenP float64
	// pattern, when non-nil, is a deterministic periodic outcome sequence
	// the site cycles through (history-predictable behaviour).
	pattern []bool
	// class tags the site's generation origin ("bias", "pattern", "hard",
	// "loop", "guard") for diagnostics.
	class string
}

// indirectMeta is the dynamic behaviour of one indirect-transfer site.
type indirectMeta struct {
	targets []isa.Addr
	zipf    *xrand.Zipf
}

// Bench is a generated synthetic benchmark: the static image plus the
// per-site dynamic behaviour needed to walk correct-path traces from it.
type Bench struct {
	profile Profile
	img     *program.Image
	entry   isa.Addr
	conds   map[isa.Addr]condMeta
	indirs  map[isa.Addr]indirectMeta
	// loopStart is the top of the driver loop; walkers count iterations by
	// watching control return to it.
	loopStart isa.Addr
	// guardIdx maps each driver guard branch to its site index, for phased
	// execution.
	guardIdx map[isa.Addr]int
	// fromProfile is true only for a bench Build made, the one kind that
	// Build(profile) reproduces.
	fromProfile bool
}

// Profile returns the profile the benchmark was generated from.
func (b *Bench) Profile() Profile { return b.profile }

// FromProfile reports whether Build(b.Profile()) reproduces b: true for a
// bench Build made, false for a reordered layout or a kernel, whose
// profile does not describe its image.
func (b *Bench) FromProfile() bool { return b.fromProfile }

// Image returns the static code image.
func (b *Bench) Image() *program.Image { return b.img }

// Entry returns the driver entry point.
func (b *Bench) Entry() isa.Addr { return b.entry }

// imageBase leaves a zero page unused so address 0 never aliases a real
// instruction.
const imageBase isa.Addr = 0x10000

// maxHardTries bounds rejection sampling loops.
const maxHardTries = 64

// gen carries generation state.
type gen struct {
	p         Profile
	rng       *xrand.Rand
	b         *program.Builder
	conds     map[isa.Addr]condMeta
	indirs    map[isa.Addr]indirectMeta
	entries   []isa.Addr
	zipf      *xrand.Zipf
	guardIdx  map[isa.Addr]int
	loopStart isa.Addr
}

// Build generates the benchmark deterministically from the profile.
func Build(p Profile) (*Bench, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	builder, err := program.NewBuilder(imageBase)
	if err != nil {
		return nil, err
	}
	g := &gen{
		p:        p,
		rng:      xrand.New(p.Seed ^ hashName(p.Name)),
		b:        builder,
		conds:    make(map[isa.Addr]condMeta),
		indirs:   make(map[isa.Addr]indirectMeta),
		zipf:     xrand.NewZipf(p.NumFuncs, p.ZipfS),
		guardIdx: make(map[isa.Addr]int),
	}
	for i := 0; i < p.NumFuncs; i++ {
		g.genFunc(i)
	}
	entry := g.genDriver()
	img, err := g.b.Build()
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", p.Name, err)
	}
	return &Bench{
		profile: p, img: img, entry: entry,
		conds: g.conds, indirs: g.indirs,
		loopStart: g.loopStart, guardIdx: g.guardIdx,
		fromProfile: true,
	}, nil
}

// MustBuild is Build for known-good profiles.
func MustBuild(p Profile) *Bench {
	b, err := Build(p)
	if err != nil {
		panic(err)
	}
	return b
}

// hashName folds a profile name into the seed (FNV-1a).
func hashName(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// blockLen draws a plain-run length with the profile's mean.
func (g *gen) blockLen() int {
	mean := g.p.MeanBlockLen
	if mean <= 1 {
		return 1
	}
	return 1 + g.rng.Geometric(1/mean)
}

// condSite draws the dynamic behaviour of a conditional site: strongly
// biased, deterministically patterned, or hard (Bernoulli in the hard
// range). Sites inside loops get short patterns, which a gshare predictor
// can learn through its own recent outcomes in the global history — and
// which therefore degrade under deep speculation when that history is
// stale, the paper's Table 3 B1-vs-B4 effect.
func (g *gen) condSite(inLoop bool) condMeta {
	r := g.rng.Float64()
	switch {
	case r < g.p.CondBiasFrac:
		takenSide := g.p.BiasTakenSide
		if takenSide == 0 {
			takenSide = 0.5
		}
		if g.rng.Bool(takenSide) {
			return condMeta{takenP: 1 - g.p.BiasNear, class: "bias"}
		}
		return condMeta{takenP: g.p.BiasNear, class: "bias"}
	case r < g.p.CondBiasFrac+g.p.PatternFrac:
		if !inLoop {
			// Outside loops a gshare predictor cannot see the site's own
			// history (too many intervening branches), so a pattern would
			// behave like a worst-case random branch. Fold the mass into a
			// moderately biased site instead.
			if g.rng.Bool(0.5) {
				return condMeta{takenP: 2 * g.p.BiasNear, class: "bias"}
			}
			return condMeta{takenP: 1 - 2*g.p.BiasNear, class: "bias"}
		}
		n := 2 + g.rng.Intn(3)
		pat := make([]bool, n)
		same := true
		for i := range pat {
			pat[i] = g.rng.Bool(0.5)
			if i > 0 && pat[i] != pat[0] {
				same = false
			}
		}
		if same {
			pat[n/2] = !pat[0]
		}
		return condMeta{pattern: pat, class: "pattern"}
	default:
		lo, hi := g.p.HardRange[0], g.p.HardRange[1]
		return condMeta{takenP: lo + g.rng.Float64()*(hi-lo), class: "hard"}
	}
}

// pickCallee draws a callee index below limit with Zipf hotness.
func (g *gen) pickCallee(limit int) int {
	for t := 0; t < maxHardTries; t++ {
		if v := g.zipf.Draw(g.rng); v < limit {
			return v
		}
	}
	return g.rng.Intn(limit)
}

// alignToLine pads with plain instructions to the next 32-byte boundary,
// as compilers align function entries.
func (g *gen) alignToLine() {
	geom := isa.MustLineGeom(isa.DefaultLineBytes)
	for uint64(g.b.PC())%uint64(geom.LineBytes) != 0 {
		g.b.Append(program.Inst{Kind: isa.Plain})
	}
}

// genFunc emits function i (callable by later functions and the driver).
func (g *gen) genFunc(i int) {
	g.alignToLine()
	g.b.MarkFunc(fmt.Sprintf("f%03d", i))
	g.entries = append(g.entries, g.b.PC())

	g.b.AppendPlain(g.blockLen())
	nseg := g.p.SegmentsPerFunc[0]
	if span := g.p.SegmentsPerFunc[1] - g.p.SegmentsPerFunc[0]; span > 0 {
		nseg += g.rng.Intn(span + 1)
	}
	for s := 0; s < nseg; s++ {
		g.genSegment(i)
	}
	g.b.Append(program.Inst{Kind: isa.Return})
}

// genSegment emits one body segment of function i.
func (g *gen) genSegment(i int) {
	r := g.rng.Float64()
	switch {
	case r < g.p.LoopFrac:
		g.genLoop()
	case r < g.p.LoopFrac+g.p.CallFrac && i > 0:
		g.genCall(i)
	case r < g.p.LoopFrac+g.p.CallFrac+g.p.IndirectJumpFrac:
		g.genSwitch()
	case r < g.p.LoopFrac+g.p.CallFrac+g.p.IndirectJumpFrac+
		0.75*(1-g.p.LoopFrac-g.p.CallFrac-g.p.IndirectJumpFrac):
		if g.rng.Bool(0.5) {
			g.genIfElse()
		} else {
			g.genIfSkip(1+float64(g.rng.Intn(3)), false)
		}
	default:
		g.b.AppendPlain(g.blockLen())
	}
}

// genIfElse emits a two-armed diamond: the conditional jumps to the else
// arm when taken, the fall-through then-arm ends with a jump over it to the
// join point. A mispredicted direction therefore fetches an arm the correct
// path never touches — the source of genuine wrong-path cache pollution.
func (g *gen) genIfElse() {
	g.b.AppendPlain(g.blockLen())
	thenLen := g.blockLen()
	elseLen := g.blockLen() * (1 + g.rng.Intn(3))
	condPC := g.b.PC()
	elseStart := condPC.Plus(1 + thenLen + 1) // cond, then-arm, jump
	join := elseStart.Plus(elseLen)
	g.b.Append(program.Inst{Kind: isa.CondBranch, Target: elseStart})
	g.b.AppendPlain(thenLen)
	g.b.Append(program.Inst{Kind: isa.Jump, Target: join})
	g.b.AppendPlain(elseLen)
	g.conds[condPC] = g.condSite(false)
}

// genIfSkip emits a conditional that either falls into or skips a body
// whose size is scaled by mul.
func (g *gen) genIfSkip(mul float64, inLoop bool) {
	g.b.AppendPlain(g.blockLen())
	bodyLen := int(float64(g.blockLen()) * mul)
	if bodyLen < 1 {
		bodyLen = 1
	}
	condPC := g.b.PC()
	g.b.Append(program.Inst{Kind: isa.CondBranch, Target: condPC.Plus(1 + bodyLen)})
	g.b.AppendPlain(bodyLen)
	g.conds[condPC] = g.condSite(inLoop)
}

// genLoop emits an innermost loop: preheader, body (optionally containing a
// data-dependent conditional), and a backward continue branch with
// geometric trip counts.
func (g *gen) genLoop() {
	g.b.AppendPlain(g.blockLen() / 2)
	loopStart := g.b.PC()
	bodyLen := int(float64(g.blockLen()) * g.p.LoopBodyMul)
	if bodyLen < 1 {
		bodyLen = 1
	}
	g.b.AppendPlain(bodyLen)
	if bodyLen >= 4 && g.rng.Bool(0.6) {
		// A loop-carried, data-dependent branch inside the body.
		g.genIfSkip(0.5, true)
	}
	condPC := g.b.PC()
	g.b.Append(program.Inst{Kind: isa.CondBranch, Target: loopStart})
	contP := 1 - 1/g.p.MeanLoopTrip
	g.conds[condPC] = condMeta{takenP: contP, class: "loop"}
}

// genCall emits a call site in function i: a direct call to a hotter,
// earlier-generated function, or an indirect (virtual) dispatch over a
// fanout set.
func (g *gen) genCall(i int) {
	g.b.AppendPlain(g.blockLen())
	if i >= 2 && g.rng.Bool(g.p.IndirectCallFrac) {
		g.genIndirect(isa.IndirectCall, i)
		return
	}
	callee := g.pickCallee(i)
	g.b.Append(program.Inst{Kind: isa.Call, Target: g.entries[callee]})
}

// genIndirect emits an indirect call or jump site whose dynamic targets are
// entries of earlier functions, selected with mild skew.
func (g *gen) genIndirect(kind isa.Kind, limit int) {
	fanout := g.p.IndirectFanout
	if fanout > limit {
		fanout = limit
	}
	targets := make([]isa.Addr, 0, fanout)
	seen := make(map[int]bool, fanout)
	for len(targets) < fanout {
		c := g.pickCallee(limit)
		if seen[c] {
			c = (c + 1 + g.rng.Intn(limit)) % limit
			if seen[c] {
				break
			}
		}
		seen[c] = true
		targets = append(targets, g.entries[c])
	}
	pc := g.b.Append(program.Inst{Kind: kind})
	g.indirs[pc] = indirectMeta{targets: targets, zipf: xrand.NewZipf(len(targets), 1.0)}
}

// genSwitch emits a switch-style indirect jump over case blocks inside the
// current function, each case jumping to a common join point.
func (g *gen) genSwitch() {
	g.b.AppendPlain(g.blockLen())
	ncases := g.p.IndirectFanout
	if ncases < 2 {
		ncases = 2
	}
	caseLens := make([]int, ncases)
	for i := range caseLens {
		caseLens[i] = g.blockLen()
	}
	ijPC := g.b.PC()
	// Layout: [ijmp][case0 plains][jump join][case1 plains][jump join]...
	caseStarts := make([]isa.Addr, ncases)
	off := 1
	for i, cl := range caseLens {
		caseStarts[i] = ijPC.Plus(off)
		off += cl + 1 // plains + terminating jump
	}
	join := ijPC.Plus(off)
	g.b.Append(program.Inst{Kind: isa.IndirectJump})
	for i, cl := range caseLens {
		_ = i
		g.b.AppendPlain(cl)
		g.b.Append(program.Inst{Kind: isa.Jump, Target: join})
	}
	g.indirs[ijPC] = indirectMeta{targets: caseStarts, zipf: xrand.NewZipf(ncases, 0.8)}
}

// guardExecP draws a driver call-site execution probability from a high/low
// mixture with mean DriverCallExecP.
func (g *gen) guardExecP() float64 {
	const hi, lo = 0.93, 0.15
	hiShare := (g.p.DriverCallExecP - lo) / (hi - lo)
	if hiShare < 0 {
		hiShare = 0
	}
	if hiShare > 1 {
		hiShare = 1
	}
	if g.rng.Bool(hiShare) {
		return hi - 0.05 + 0.1*g.rng.Float64()
	}
	return lo - 0.08 + 0.16*g.rng.Float64()
}

// genDriver emits the main loop: a guarded sequence of call sites to the
// generated functions, closed by an unconditional backward jump, so the
// walker can run for any instruction budget.
func (g *gen) genDriver() isa.Addr {
	g.alignToLine()
	g.b.MarkFunc("main")
	entry := g.b.PC()
	g.b.AppendPlain(g.blockLen())
	loopStart := g.b.PC()
	g.loopStart = loopStart
	for s := 0; s < g.p.DriverCallSites; s++ {
		g.b.AppendPlain(g.blockLen())
		guardPC := g.b.PC()
		// Guard skips the call when taken. Per-site execution rates are
		// drawn from a high/low mixture whose mean is DriverCallExecP:
		// most sites run almost every iteration (predictable guards, as in
		// real main loops) while a cold minority runs rarely. A coin-flip
		// guard would flood the PHT with worst-case branches.
		execP := g.guardExecP()
		g.b.Append(program.Inst{Kind: isa.CondBranch, Target: guardPC.Plus(2)})
		g.conds[guardPC] = condMeta{takenP: 1 - execP, class: "guard"}
		g.guardIdx[guardPC] = s
		callee := g.pickCallee(g.p.NumFuncs)
		g.b.Append(program.Inst{Kind: isa.Call, Target: g.entries[callee]})
		if g.rng.Bool(0.3) {
			g.genIfSkip(1, false)
		}
	}
	g.b.AppendPlain(g.blockLen())
	g.b.Append(program.Inst{Kind: isa.Jump, Target: loopStart})
	return entry
}
