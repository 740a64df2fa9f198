// Package classify reproduces the paper's Table 4: it runs the Oracle and
// Optimistic policies over the same trace and partitions correct-path
// I-cache misses into the four categories the paper defines, by matching up
// the two runs' structural reference streams (which are policy independent
// for a given trace).
//
// NewArm sets up one run's config and records its miss stream, and
// Categorize matches two finished arms, so a sweep can run the arms as
// ordinary cells; Run does both for one image.
package classify

import (
	"fmt"

	"specfetch/internal/bpred"
	"specfetch/internal/core"
	"specfetch/internal/program"
	"specfetch/internal/trace"
)

// Categories holds Table 4's columns. The four miss classes are per
// correct-path instruction, as percentages (matching the paper's units):
//
//   - BothMiss: misses in both Oracle and Optimistic.
//   - SpecPollute: misses only in Optimistic on the correct path — pollution
//     caused by wrong-path fills.
//   - SpecPrefetch: misses only in Oracle — prevented in Optimistic by the
//     prefetching effect of wrong-path fills.
//   - WrongPath: misses Optimistic takes on wrong paths (their main cost is
//     memory bandwidth).
type Categories struct {
	BothMiss     float64
	SpecPollute  float64
	SpecPrefetch float64
	WrongPath    float64
	// TrafficRatio is total Optimistic line fetches over Oracle's.
	TrafficRatio float64
	// Insts is the correct-path instruction count both runs retired.
	Insts int64
}

// OracleMissPct returns Oracle's overall miss ratio (BothMiss+SpecPrefetch).
func (c Categories) OracleMissPct() float64 { return c.BothMiss + c.SpecPrefetch }

// OptimisticRightPathMissPct returns Optimistic's correct-path miss ratio.
func (c Categories) OptimisticRightPathMissPct() float64 { return c.BothMiss + c.SpecPollute }

// NewPredictor builds a fresh predictor for one classification run; both
// runs must start from identical predictor state.
type NewPredictor func() bpred.Predictor

// NewReader builds a fresh reader over the same trace; both runs must see
// identical records.
type NewReader func() trace.Reader

// Run classifies misses for the given machine configuration (whose Policy
// field is ignored; Oracle and Optimistic are used).
func Run(cfg core.Config, img *program.Image, newReader NewReader, newPred NewPredictor) (Categories, error) {
	oracleCfg, oracle := NewArm(cfg, core.Oracle)
	oracleRes, err := core.Run(oracleCfg, img, newReader(), newPred())
	if err != nil {
		return Categories{}, fmt.Errorf("classify: oracle run: %w", err)
	}
	optCfg, opt := NewArm(cfg, core.Optimistic)
	optRes, err := core.Run(optCfg, img, newReader(), newPred())
	if err != nil {
		return Categories{}, fmt.Errorf("classify: optimistic run: %w", err)
	}
	return Categorize(oracle, oracleRes, opt, optRes)
}

// Arm is one of a classification's two runs: the per-reference miss
// outcomes its access callback recorded.
type Arm struct {
	misses []bool
}

// NewArm returns cfg set up as the classification run under pol, without
// prefetching (Table 4 is measured without it), and the Arm its
// OnRightPathAccess callback records into. Each returned config must run
// at most once.
func NewArm(cfg core.Config, pol core.Policy) (core.Config, *Arm) {
	a := &Arm{}
	cfg.Policy = pol
	cfg.NextLinePrefetch = false
	cfg.OnRightPathAccess = func(seq int64, line uint64, miss bool) {
		if seq != int64(len(a.misses)) {
			panic(fmt.Sprintf("classify: non-monotone reference sequence %d (have %d)", seq, len(a.misses)))
		}
		a.misses = append(a.misses, miss)
	}
	return cfg, a
}

// Categorize partitions the correct-path misses of a finished Oracle arm
// and Optimistic arm, given each run's result.
func Categorize(oracle *Arm, oracleRes core.Result, opt *Arm, optRes core.Result) (Categories, error) {
	if oracleRes.Insts != optRes.Insts {
		return Categories{}, fmt.Errorf("classify: instruction counts diverge: oracle %d, optimistic %d",
			oracleRes.Insts, optRes.Insts)
	}
	if len(oracle.misses) != len(opt.misses) {
		return Categories{}, fmt.Errorf("classify: reference streams diverge: oracle %d refs, optimistic %d",
			len(oracle.misses), len(opt.misses))
	}

	var both, pollute, prefetch int64
	for i, om := range oracle.misses {
		switch pm := opt.misses[i]; {
		case om && pm:
			both++
		case om && !pm:
			prefetch++
		case !om && pm:
			pollute++
		}
	}

	insts := oracleRes.Insts
	pct := func(n int64) float64 {
		if insts == 0 {
			return 0
		}
		return 100 * float64(n) / float64(insts)
	}
	cat := Categories{
		BothMiss:     pct(both),
		SpecPollute:  pct(pollute),
		SpecPrefetch: pct(prefetch),
		WrongPath:    pct(int64(optRes.Traffic.WrongPathFills)),
		Insts:        insts,
	}
	if oracleRes.Traffic.Total() > 0 {
		cat.TrafficRatio = float64(optRes.Traffic.Total()) / float64(oracleRes.Traffic.Total())
	}
	return cat, nil
}
