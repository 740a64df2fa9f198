package experiments

import (
	"fmt"
	"sort"

	"specfetch/internal/bpred"
	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/synth"
	"specfetch/internal/texttable"
)

// The ablations quantify the design choices DESIGN.md calls out and the
// paper's §2/§6 alternatives: prefetch scheme, BTB coupling, cache
// associativity, fetch width, and a pipelined memory interface.
//
// Each ablation is one bench-major work-list of bench x variant cells, run
// through runCells like every other sweep; a row's derived values (a
// traffic ratio against the row's first variant, an L2 hit rate) are
// reductions over finished results, so no cell depends on another.

// PrefetchScheme names one prefetch configuration for the ablation.
type PrefetchScheme struct {
	Name string
	// Apply sets the scheme's fields on a config.
	Apply func(*core.Config)
}

// PrefetchSchemes lists the compared prefetch engines: the paper's
// next-line policy, Smith & Hsu target prefetching, Pierce & Mudge style
// combined prefetching, and a Jouppi-style sequential stream.
func PrefetchSchemes() []PrefetchScheme {
	return []PrefetchScheme{
		{Name: "none", Apply: func(c *core.Config) {}},
		{Name: "next-line", Apply: func(c *core.Config) { c.NextLinePrefetch = true }},
		{Name: "target", Apply: func(c *core.Config) { c.TargetPrefetch = true }},
		{Name: "combined", Apply: func(c *core.Config) { c.NextLinePrefetch = true; c.TargetPrefetch = true }},
		{Name: "stream-4", Apply: func(c *core.Config) { c.StreamDepth = 4 }},
	}
}

// renderRows simulates cellsOf(i, benches[i]) for every bench as one
// bench-major work-list and adds one row per bench to t: the bench name,
// then row applied to that bench's results in cellsOf order.
func renderRows(t *texttable.Table, opt Options, benches []*synth.Bench,
	cellsOf func(i int, b *synth.Bench) []runCell, row func(res []core.Result) []any) (*texttable.Table, error) {
	var cells []runCell
	ends := make([]int, len(benches))
	for i, b := range benches {
		cells = append(cells, cellsOf(i, b)...)
		ends[i] = len(cells)
	}
	results, err := runCells(opt, cells)
	if err != nil {
		return nil, err
	}
	start := 0
	for i, b := range benches {
		t.AddRowF(2, append([]any{b.Profile().Name}, row(results[start:ends[i]])...)...)
		start = ends[i]
	}
	return t, nil
}

// configCells is the cellsOf of an ablation whose variants are machine
// configurations: one cell per config on the bench's shared stream.
func configCells(cfgs []core.Config) func(int, *synth.Bench) []runCell {
	return func(_ int, b *synth.Bench) []runCell {
		cells := make([]runCell, len(cfgs))
		for i, cfg := range cfgs {
			cells[i] = newCell(b, cfg)
		}
		return cells
	}
}

// ispis lists each result's total ISPI.
func ispis(res []core.Result) []any {
	out := make([]any, len(res))
	for i, r := range res {
		out[i] = r.TotalISPI()
	}
	return out
}

// ispiAndMiss lists each result's total ISPI and right-path miss %.
func ispiAndMiss(res []core.Result) []any {
	var out []any
	for _, r := range res {
		out = append(out, r.TotalISPI(), r.MissRatioPct())
	}
	return out
}

// AblationPrefetch compares prefetch schemes under the Resume policy.
func AblationPrefetch(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	headers := []string{"Program"}
	var cfgs []core.Config
	for _, s := range PrefetchSchemes() {
		headers = append(headers, s.Name+" ISPI", s.Name+" traffic")
		cfg := baseConfig(core.Resume)
		s.Apply(&cfg)
		cfgs = append(cfgs, cfg)
	}
	t := texttable.New("Ablation: prefetch scheme (Resume policy, 8K, 5-cycle penalty)", headers...)
	return renderRows(t, opt, benches, configCells(cfgs), func(res []core.Result) []any {
		// Traffic is relative to the first scheme (no prefetching).
		baseTraffic := float64(res[0].Traffic.Total())
		var cells []any
		for _, r := range res {
			ratio := 0.0
			if baseTraffic > 0 {
				ratio = float64(r.Traffic.Total()) / baseTraffic
			}
			cells = append(cells, r.TotalISPI(), ratio)
		}
		return cells
	})
}

// AblationBTBCoupling compares the paper's decoupled branch architecture
// against a Pentium-style coupled BTB and a static not-taken predictor.
func AblationBTBCoupling(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	t := texttable.New("Ablation: branch architecture (Oracle policy ISPI; decoupled gshare is the paper's baseline)",
		"Program", "Decoupled", "Local PAg", "Coupled", "Static")
	return renderRows(t, opt, benches, func(_ int, b *synth.Bench) []runCell {
		var cells []runCell
		for _, kind := range bpred.Kinds() {
			cell := newCell(b, baseConfig(core.Oracle))
			cell.spec.Pred = kind
			cells = append(cells, cell)
		}
		return cells
	}, ispis)
}

// AblationAssociativity compares direct-mapped (the paper) against 2- and
// 4-way caches of the same capacity.
func AblationAssociativity(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, assoc := range []int{1, 2, 4} {
		cfg := baseConfig(core.Resume)
		cfg.ICache.Assoc = assoc
		cfgs = append(cfgs, cfg)
	}
	t := texttable.New("Ablation: 8K cache associativity (Resume policy ISPI / right-path miss %)",
		"Program", "DM", "DM miss%", "2-way", "2w miss%", "4-way", "4w miss%")
	return renderRows(t, opt, benches, configCells(cfgs), ispiAndMiss)
}

// AblationFetchWidth sweeps the superscalar width (the paper fixes 4).
func AblationFetchWidth(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, w := range []int{2, 4, 8} {
		cfg := baseConfig(core.Resume)
		cfg.FetchWidth = w
		cfgs = append(cfgs, cfg)
	}
	t := texttable.New("Ablation: fetch width (Resume policy, IPC)",
		"Program", "2-wide", "4-wide", "8-wide")
	return renderRows(t, opt, benches, configCells(cfgs), func(res []core.Result) []any {
		var cells []any
		for _, r := range res {
			cells = append(cells, r.IPC())
		}
		return cells
	})
}

// AblationPipelinedMemory measures what removing bus contention buys the
// aggressive policies at the long miss latency — the paper's "pipelining
// miss requests" future work.
func AblationPipelinedMemory(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, pol := range []core.Policy{core.Resume, core.Pessimistic} {
		for _, pipe := range []bool{false, true} {
			cfg := baseConfig(pol)
			cfg.MissPenalty = 20
			cfg.NextLinePrefetch = true
			cfg.PipelinedMemory = pipe
			cfgs = append(cfgs, cfg)
		}
	}
	t := texttable.New("Ablation: pipelined memory interface (20-cycle penalty, prefetch on; ISPI)",
		"Program", "Resume", "Resume+pipe", "Pess", "Pess+pipe")
	return renderRows(t, opt, benches, configCells(cfgs), ispis)
}

// AblationRAS compares the paper's BTB-only return prediction against
// return-address stacks of increasing depth.
func AblationRAS(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, depth := range []int{0, 8, 32} {
		cfg := baseConfig(core.Oracle)
		cfg.RASDepth = depth
		cfgs = append(cfgs, cfg)
	}
	t := texttable.New("Ablation: return-address stack (Oracle policy; ISPI / BTB target mispredicts per 100k insts)",
		"Program", "no RAS", "mispred", "RAS-8", "mispred", "RAS-32", "mispred")
	return renderRows(t, opt, benches, configCells(cfgs), func(res []core.Result) []any {
		var cells []any
		for _, r := range res {
			per100k := 0.0
			if r.Insts > 0 {
				per100k = 100_000 * float64(r.Events.BTBMispredicts) / float64(r.Insts)
			}
			cells = append(cells, r.TotalISPI(), per100k)
		}
		return cells
	})
}

// AblationVictimCache measures what a small fully associative victim buffer
// buys the paper's direct-mapped cache.
func AblationVictimCache(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, lines := range []int{0, 4, 16} {
		cfg := baseConfig(core.Resume)
		cfg.ICache.VictimLines = lines
		cfgs = append(cfgs, cfg)
	}
	t := texttable.New("Ablation: victim buffer on the 8K direct-mapped cache (Resume policy; ISPI / right-path miss %)",
		"Program", "none", "miss%", "4 lines", "miss%", "16 lines", "miss%")
	return renderRows(t, opt, benches, configCells(cfgs), ispiAndMiss)
}

// AblationMSHR compares the paper's single resume/prefetch buffers against
// multi-entry MSHR files, with and without a pipelined memory interface.
func AblationMSHR(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, v := range []struct {
		mshrs int
		pipe  bool
	}{{0, false}, {4, false}, {4, true}} {
		cfg := baseConfig(core.Resume)
		cfg.MissPenalty = 20
		cfg.NextLinePrefetch = true
		cfg.MSHRs = v.mshrs
		cfg.PipelinedMemory = v.pipe
		cfgs = append(cfgs, cfg)
	}
	t := texttable.New("Ablation: non-blocking fill tracking (Resume, 20-cycle penalty, prefetch on; ISPI)",
		"Program", "1 buf", "4 MSHR", "4 MSHR+pipe")
	return renderRows(t, opt, benches, configCells(cfgs), ispis)
}

// AblationCodeLayout evaluates profile-guided function reordering — the
// paper's "profile driven basic-block reordering" future-work item. Each
// benchmark is profiled on one stream and evaluated (original vs reordered
// layout) on a different stream, so the gain is not an artifact of training
// on the test trace. The profiling walks run per bench on the pool first;
// a reordered bench cannot be rebuilt from its profile, so this work-list
// always runs in process.
func AblationCodeLayout(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	reordered, err := benchRows(opt, benches, func(b *synth.Bench) (*synth.Bench, error) {
		rb, err := synth.ReorderByProfile(b, opt.Insts, defaultStreamSeed+1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", b.Profile().Name, err)
		}
		return rb, nil
	})
	if err != nil {
		return nil, err
	}
	t := texttable.New("Ablation: profile-guided code layout (Resume policy, 8K; ISPI / right-path miss %)",
		"Program", "original", "miss%", "reordered", "miss%")
	return renderRows(t, opt, benches, func(i int, b *synth.Bench) []runCell {
		return []runCell{newCell(b, baseConfig(core.Resume)), newCell(reordered[i], baseConfig(core.Resume))}
	}, ispiAndMiss)
}

// AblationL2 inserts a unified 64K L2 behind the paper's 8K L1 and varies
// the memory penalty: the hierarchy makes the effective fill latency small
// (the L2-hit case the paper's conclusion calls "an on-chip hierarchy of
// caches"), which should restore the aggressive policies' advantage even at
// a long memory latency.
func AblationL2(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	l2 := cache.Config{SizeBytes: 64 * 1024, LineBytes: 32, Assoc: 4}
	var cfgs []core.Config
	for _, withL2 := range []bool{false, true} {
		for _, pol := range []core.Policy{core.Optimistic, core.Pessimistic} {
			cfg := baseConfig(pol)
			cfg.MissPenalty = 20
			if withL2 {
				l2c := l2
				cfg.L2 = &l2c
				cfg.L2Latency = 5
			}
			cfgs = append(cfgs, cfg)
		}
	}
	t := texttable.New("Ablation: on-chip L2 (20-cycle memory, 5-cycle L2 hits; ISPI and L2 hit rate)",
		"Program", "Opt noL2", "Pess noL2", "Opt +L2", "Pess +L2", "L2 hit%")
	return renderRows(t, opt, benches, configCells(cfgs), func(res []core.Result) []any {
		// The hit rate is the last L2 run's that reached the L2 at all.
		var hitPct float64
		for _, r := range res[2:] {
			if n := r.Traffic.L2Hits + r.Traffic.L2Misses; n > 0 {
				hitPct = 100 * float64(r.Traffic.L2Hits) / float64(n)
			}
		}
		return append(ispis(res), hitPct)
	})
}

// AblationContextSwitch flushes the I-cache at decreasing intervals
// (modelling OS context switches) and shows how the policy choice holds up:
// flush-induced cold misses are ordinary right-path misses, so the
// conservative policies' force_resolve tax grows with switch rate.
func AblationContextSwitch(opt Options) (*texttable.Table, error) {
	benches, err := buildAll(opt)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, iv := range []int64{0, 100_000, 20_000} {
		for _, pol := range []core.Policy{core.Resume, core.Pessimistic} {
			cfg := baseConfig(pol)
			cfg.FlushInterval = iv
			cfgs = append(cfgs, cfg)
		}
	}
	t := texttable.New("Ablation: context-switch flushing (Resume vs Pessimistic ISPI at flush intervals)",
		"Program", "Res inf", "Pess inf", "Res 100k", "Pess 100k", "Res 20k", "Pess 20k")
	return renderRows(t, opt, benches, configCells(cfgs), ispis)
}

// Ablations maps names to runners (used by cmd/paperbench -ablation).
func Ablations() map[string]func(Options) (*texttable.Table, error) {
	return map[string]func(Options) (*texttable.Table, error){
		"prefetch":      AblationPrefetch,
		"btb":           AblationBTBCoupling,
		"assoc":         AblationAssociativity,
		"width":         AblationFetchWidth,
		"pipelined-mem": AblationPipelinedMemory,
		"ras":           AblationRAS,
		"victim":        AblationVictimCache,
		"mshr":          AblationMSHR,
		"layout":        AblationCodeLayout,
		"ctxswitch":     AblationContextSwitch,
		"l2":            AblationL2,
	}
}

// AblationNames returns the names Ablations maps, sorted.
func AblationNames() []string {
	var names []string
	for name := range Ablations() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
