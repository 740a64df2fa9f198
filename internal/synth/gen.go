package synth

import (
	"fmt"
	"slices"

	"specfetch/internal/isa"
	"specfetch/internal/program"
	"specfetch/internal/xrand"
)

// siteClass tags a conditional site's generation origin for diagnostics.
type siteClass uint8

const (
	classBias siteClass = iota + 1
	classPattern
	classHard
	classLoop
	classGuard
)

var classNames = [...]string{
	classBias:    "bias",
	classPattern: "pattern",
	classHard:    "hard",
	classLoop:    "loop",
	classGuard:   "guard",
}

func (c siteClass) String() string { return classNames[c] }

// condMeta is the dynamic behaviour of one conditional-branch site.
type condMeta struct {
	pc isa.Addr
	// takenP is the per-execution probability the branch is taken, used
	// when patLen is 0.
	takenP float64
	// pattern holds, from bit 0 up, a deterministic periodic sequence of
	// patLen outcomes (1 = taken) the site cycles through
	// (history-predictable behaviour). patLen is 0 for a site without one.
	pattern uint8
	patLen  uint8
	class   siteClass
	// seq is a driver guard's call-site index, for phased execution, or a
	// patterned site's number among the patterned sites, which indexes a
	// walker's pattern positions. No site is both.
	seq int32
}

// indirectMeta is the dynamic behaviour of one indirect-transfer site.
type indirectMeta struct {
	pc      isa.Addr
	targets []isa.Addr
	zipf    *xrand.Zipf
}

// Bench is a generated synthetic benchmark: the static image plus the
// per-site dynamic behaviour needed to walk correct-path traces from it.
type Bench struct {
	profile Profile
	img     *program.Image
	entry   isa.Addr
	// loopStart is the top of the driver loop; walkers count iterations by
	// watching control return to it.
	loopStart isa.Addr
	// conds and indirs are the conditional and indirect sites, numbered in
	// the order they were generated; patterns counts the patterned conds.
	conds    []condMeta
	indirs   []indirectMeta
	patterns int
	// site maps each image slot to one plus the number of the site it
	// holds (in conds for a conditional, in indirs for an indirect
	// transfer), or to 0 for a slot without one.
	site []int32
	// fromProfile is true only for a bench Build made, the one kind that
	// Build(profile) reproduces.
	fromProfile bool
}

// newBench assembles a benchmark, numbers its patterned sites and indexes
// its sites: each must sit on an instruction of its kind, one site to an
// instruction.
func newBench(p Profile, img *program.Image, entry, loopStart isa.Addr, conds []condMeta, indirs []indirectMeta) (*Bench, error) {
	b := &Bench{
		profile: p, img: img, entry: entry, loopStart: loopStart,
		conds: conds, indirs: indirs,
		site: make([]int32, img.NumInsts()),
	}
	for i := range conds {
		m := &conds[i]
		if m.patLen > 0 {
			m.seq = int32(b.patterns)
			b.patterns++
		}
		if err := b.indexSite(m.pc, i, isa.CondBranch, isa.CondBranch); err != nil {
			return nil, err
		}
	}
	for i, m := range indirs {
		if err := b.indexSite(m.pc, i, isa.IndirectJump, isa.IndirectCall); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// indexSite records site number n at pc, which must hold kind k1 or k2.
func (b *Bench) indexSite(pc isa.Addr, n int, k1, k2 isa.Kind) error {
	if !b.img.Contains(pc) {
		return fmt.Errorf("synth: site %s outside the image", pc)
	}
	if k := b.img.At(pc).Kind; k != k1 && k != k2 {
		return fmt.Errorf("synth: site %s holds a %s", pc, k)
	}
	i := b.slot(pc)
	if b.site[i] != 0 {
		return fmt.Errorf("synth: two sites at %s", pc)
	}
	b.site[i] = int32(n + 1)
	return nil
}

// slot returns the image slot index of pc, which must be inside the image.
func (b *Bench) slot(pc isa.Addr) uint64 { return uint64(pc-b.img.Base()) / isa.InstBytes }

// siteAt returns the number of the site at pc, which must be inside the
// image, or -1 when pc holds none.
func (b *Bench) siteAt(pc isa.Addr) int { return int(b.site[b.slot(pc)]) - 1 }

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
	conds     []condMeta
	indirs    []indirectMeta
	entries   []isa.Addr
	zipf      *xrand.Zipf
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
		p:    p,
		rng:  xrand.New(p.Seed ^ hashName(p.Name)),
		b:    builder,
		zipf: xrand.NewZipf(p.NumFuncs, p.ZipfS),
	}
	for i := 0; i < p.NumFuncs; i++ {
		g.genFunc(i)
	}
	entry := g.genDriver()
	img, err := g.b.Build()
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", p.Name, err)
	}
	b, err := newBench(p, img, entry, g.loopStart, g.conds, g.indirs)
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", p.Name, err)
	}
	b.fromProfile = true
	return b, nil
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
			return condMeta{takenP: 1 - g.p.BiasNear, class: classBias}
		}
		return condMeta{takenP: g.p.BiasNear, class: classBias}
	case r < g.p.CondBiasFrac+g.p.PatternFrac:
		if !inLoop {
			// Outside loops a gshare predictor cannot see the site's own
			// history (too many intervening branches), so a pattern would
			// behave like a worst-case random branch. Fold the mass into a
			// moderately biased site instead.
			if g.rng.Bool(0.5) {
				return condMeta{takenP: 2 * g.p.BiasNear, class: classBias}
			}
			return condMeta{takenP: 1 - 2*g.p.BiasNear, class: classBias}
		}
		n := 2 + g.rng.Intn(3)
		var pat uint8
		for i := 0; i < n; i++ {
			if g.rng.Bool(0.5) {
				pat |= 1 << i
			}
		}
		if pat == 0 || pat == 1<<n-1 {
			// All one outcome is no pattern: flip the middle one.
			pat ^= 1 << (n / 2)
		}
		return condMeta{pattern: pat, patLen: uint8(n), class: classPattern}
	default:
		lo, hi := g.p.HardRange[0], g.p.HardRange[1]
		// float64(x*y) rounds the product by itself, so no architecture
		// fuses it into a multiply-add and every image is the same on all
		// of them. The generator writes each x*y + z so.
		return condMeta{takenP: lo + float64(g.rng.Float64()*(hi-lo)), class: classHard}
	}
}

// addCond records the conditional site at pc.
func (g *gen) addCond(pc isa.Addr, m condMeta) {
	m.pc = pc
	g.conds = append(g.conds, m)
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
func alignToLine(b *program.Builder) {
	const line = isa.DefaultLineBytes
	if off := int(uint64(b.PC()) % line); off != 0 {
		b.AppendPlain((line - off) / isa.InstBytes)
	}
}

// genFunc emits function i (callable by later functions and the driver).
func (g *gen) genFunc(i int) {
	alignToLine(g.b)
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
		float64(0.75*(1-g.p.LoopFrac-g.p.CallFrac-g.p.IndirectJumpFrac)):
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
	g.addCond(condPC, g.condSite(false))
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
	g.addCond(condPC, g.condSite(inLoop))
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
	g.addCond(condPC, condMeta{takenP: contP, class: classLoop})
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
	// Function entries are distinct, so a callee is already a target
	// exactly when its entry is.
	targets := make([]isa.Addr, 0, fanout)
	for len(targets) < fanout {
		c := g.pickCallee(limit)
		if slices.Contains(targets, g.entries[c]) {
			c = (c + 1 + g.rng.Intn(limit)) % limit
			if slices.Contains(targets, g.entries[c]) {
				break
			}
		}
		targets = append(targets, g.entries[c])
	}
	pc := g.b.Append(program.Inst{Kind: kind})
	g.indirs = append(g.indirs, indirectMeta{pc: pc, targets: targets, zipf: xrand.NewZipf(len(targets), 1.0)})
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
	g.indirs = append(g.indirs, indirectMeta{pc: ijPC, targets: caseStarts, zipf: xrand.NewZipf(ncases, 0.8)})
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
		return hi - 0.05 + float64(0.1*g.rng.Float64())
	}
	return lo - 0.08 + float64(0.16*g.rng.Float64())
}

// genDriver emits the main loop: a guarded sequence of call sites to the
// generated functions, closed by an unconditional backward jump, so the
// walker can run for any instruction budget.
func (g *gen) genDriver() isa.Addr {
	alignToLine(g.b)
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
		g.addCond(guardPC, condMeta{takenP: 1 - execP, class: classGuard, seq: int32(s)})
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
