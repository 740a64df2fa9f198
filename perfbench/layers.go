package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"time"

	"specfetch/internal/adaptive"
	"specfetch/internal/bpred"
	"specfetch/internal/cache"
	"specfetch/internal/core"
	"specfetch/internal/distsweep"
	"specfetch/internal/hosttime"
	"specfetch/internal/isa"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// The layer replay. A traced run replays a sample of the workload's own
// cells through each layer's public functions, one layer at a time, and
// times each step: the walker, the replay cursor, the branch predictor, the
// I-cache, the engine in both step modes with and without a window series or
// an audit probe, the adaptive chooser, and the wire encoding. Every engine
// run must reproduce the workload's result for the cell exactly, so the
// per-layer numbers describe the same program the end-to-end run measured.

const (
	// replayCells bounds how many static-policy cells a traced run replays,
	// and replayAdaptive how many adaptive ones.
	replayCells    = 6
	replayAdaptive = 2
	// replayWindow is the window width for cells that carry none.
	replayWindow = 2500
)

// layerTimes accumulates host time and work per layer over replayed cells.
type layerTimes struct {
	walk, replay, bpred, cache         time.Duration
	walkInsts, replayInsts             int64
	branches, accesses                 int64
	skip, ref, windows, audit, auditOn time.Duration
	skipInsts, skipCycles, refCycles   int64
	decide                             []float64
}

// replay replays a sample of cells and returns the per-layer metrics, the
// number of outputs it checked, and one error per check that failed.
func replay(cells []cellRecord, spans *obs.SpanTracer) (map[string]float64, int, []error) {
	var static, adaptiveCells []cellRecord
	for _, c := range cells {
		if c.spec.Config.Policy == core.Adaptive {
			adaptiveCells = append(adaptiveCells, c)
		} else {
			static = append(static, c)
		}
	}
	picked := append(spread(static, replayCells), spread(adaptiveCells, replayAdaptive)...)

	var lt layerTimes
	var bad []error
	benches := map[synth.Profile]*synth.Bench{}
	for _, c := range picked {
		b, ok := benches[c.spec.Profile]
		if !ok {
			var err error
			if b, err = synth.Build(c.spec.Profile); err != nil {
				bad = append(bad, fmt.Errorf("replay %s: %w", cellName(c.spec), err))
				continue
			}
			benches[c.spec.Profile] = b
		}
		if err := replayCell(&lt, b, c, spans); err != nil {
			bad = append(bad, fmt.Errorf("replay %s: %w", cellName(c.spec), err))
		}
	}

	lm := countLayers(cells)
	lm["synth.walk_ns_per_inst"] = perUnit(lt.walk, lt.walkInsts)
	lm["trace.replay_ns_per_inst"] = perUnit(lt.replay, lt.replayInsts)
	lm["bpred.ns_per_branch"] = perUnit(lt.bpred, lt.branches)
	lm["cache.ns_per_access"] = perUnit(lt.cache, lt.accesses)
	lm["core.skipahead_ns_per_inst"] = perUnit(lt.skip, lt.skipInsts)
	lm["core.skipahead_ns_per_cycle"] = perUnit(lt.skip, lt.skipCycles)
	lm["core.reference_ns_per_cycle"] = perUnit(lt.ref, lt.refCycles)
	lm["obs.windows_ns_per_inst"] = perUnit(lt.windows-lt.skip, lt.skipInsts)
	lm["obs.audit_ns_per_inst"] = perUnit(lt.auditOn-lt.audit, lt.skipInsts)
	lm["adaptive.decide_ns_p50"] = median(lt.decide)
	lm["adaptive.decisions"] = float64(len(lt.decide))

	enc, dec, wire, err := wireCost(cells)
	if err != nil {
		bad = append(bad, err)
	}
	lm["distsweep.encode_ms"] = ms(enc)
	lm["distsweep.decode_ms"] = ms(dec)
	lm["distsweep.wire_mb"] = float64(wire) / (1 << 20)
	// The wire round trip counts as one more checked output.
	return lm, len(picked) + 1, bad
}

// spread picks up to n cells evenly spaced through cs.
func spread(cs []cellRecord, n int) []cellRecord {
	if len(cs) <= n {
		return cs
	}
	out := make([]cellRecord, n)
	for i := range out {
		out[i] = cs[i*len(cs)/n]
	}
	return out
}

func perUnit(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// countLayers sums the simulated counters of every captured cell: the
// model's own accounting, which any change to simulated behaviour moves.
func countLayers(cells []cellRecord) map[string]float64 {
	var r core.Result
	var windows int
	for _, c := range cells {
		x := c.res.Result
		r.CondBranches += x.CondBranches
		r.Events.PHTMispredictSlots += x.Events.PHTMispredictSlots
		r.Events.BTBMisfetchSlots += x.Events.BTBMisfetchSlots
		r.RightPathAccesses += x.RightPathAccesses
		r.RightPathMisses += x.RightPathMisses
		r.WrongPathMisses += x.WrongPathMisses
		r.Traffic.DemandFills += x.Traffic.DemandFills
		r.Traffic.WrongPathFills += x.Traffic.WrongPathFills
		r.Traffic.PrefetchFills += x.Traffic.PrefetchFills
		r.Cycles += x.Cycles
		r.WrongPathInsts += x.WrongPathInsts
		r.Lost.AddAll(x.Lost)
		r.PolicySwitches += x.PolicySwitches
		windows += len(c.res.WindowSeries)
	}
	lm := map[string]float64{
		"bpred.cond_branches":        float64(r.CondBranches),
		"bpred.pht_mispredict_slots": float64(r.Events.PHTMispredictSlots.Int64()),
		"bpred.btb_misfetch_slots":   float64(r.Events.BTBMisfetchSlots.Int64()),
		"cache.right_path_accesses":  float64(r.RightPathAccesses),
		"cache.right_path_misses":    float64(r.RightPathMisses),
		"cache.wrong_path_misses":    float64(r.WrongPathMisses),
		"cache.bus_transfers":        float64(r.Traffic.Total()),
		"core.cycles":                float64(r.Cycles.Int64()),
		"core.wrong_path_insts":      float64(r.WrongPathInsts),
		"obs.window_records":         float64(windows),
		"adaptive.policy_switches":   float64(r.PolicySwitches),
	}
	for _, comp := range metrics.Components() {
		lm["core.lost_slots."+comp.String()] = float64(r.Lost[comp].Int64())
	}
	return lm
}

// replayCell runs one cell through every layer.
func replayCell(lt *layerTimes, b *synth.Bench, c cellRecord, spans *obs.SpanTracer) error {
	spec, name := c.spec, cellName(c.spec)
	limit := traceLimit(spec.Insts)

	sp := spans.Start("synth.walk "+name, 0)
	start := hosttime.Now()
	n, err := drain(b.NewReader(spec.Seed, limit))
	lt.walk += hosttime.Since(start)
	sp.End()
	if err != nil {
		return err
	}
	lt.walkInsts += n
	recs, err := trace.Collect(b.NewReader(spec.Seed, limit))
	if err != nil {
		return err
	}

	sp = spans.Start("trace.replay "+name, 0)
	start = hosttime.Now()
	n, err = drain(trace.NewSliceReader(recs))
	lt.replay += hosttime.Since(start)
	sp.End()
	if err != nil {
		return err
	}
	lt.replayInsts += n

	pred, err := newPredictor(spec)
	if err != nil {
		return err
	}
	sp = spans.Start("bpred "+name, 0)
	start = hosttime.Now()
	lt.branches += drivePredictor(pred, recs)
	lt.bpred += hosttime.Since(start)
	sp.End()

	cfg := spec.Config.ToConfig()
	cfg.MaxInsts = spec.Insts
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		return err
	}
	sp = spans.Start("cache "+name, 0)
	start = hosttime.Now()
	lt.accesses += driveCache(ic, recs)
	lt.cache += hosttime.Since(start)
	sp.End()

	// run replays the cell on the engine and checks it reproduces the
	// workload's result.
	run := func(label string, mode core.StepMode, probe obs.Probe, ch core.Chooser) (core.Result, time.Duration, error) {
		rc := cfg
		rc.StepMode, rc.Probe = mode, probe
		if probe != nil && rc.SampleInterval <= 0 {
			rc.SampleInterval = replayWindow
		}
		if rc.Policy == core.Adaptive {
			if ch == nil {
				fresh, err := adaptive.New(rc.AdaptStrategy, rc.AdaptSeed)
				if err != nil {
					return core.Result{}, 0, err
				}
				ch = fresh
			}
			rc.Chooser = ch
		}
		p, err := newPredictor(spec)
		if err != nil {
			return core.Result{}, 0, err
		}
		sp := spans.Start(label+" "+name, 0)
		start := hosttime.Now()
		res, err := runEngine(rc, b, recs, p)
		d := hosttime.Since(start)
		sp.End()
		if err != nil {
			return res, d, fmt.Errorf("%s: %w", label, err)
		}
		if !reflect.DeepEqual(res, c.res.Result) {
			return res, d, fmt.Errorf("%s: replayed result differs from the workload's", label)
		}
		return res, d, nil
	}

	res, skip, err := run("core.skipahead", core.StepSkipAhead, nil, nil)
	if err != nil {
		return err
	}
	_, ref, err := run("core.reference", core.StepReference, nil, nil)
	if err != nil {
		return err
	}
	ws := obs.NewWindowSeries()
	_, win, err := run("obs.windows", core.StepSkipAhead, ws, nil)
	if err != nil {
		return err
	}
	if spec.CaptureWindows && !reflect.DeepEqual(ws.Records(), c.res.WindowSeries) {
		return errors.New("obs.windows: replayed window series differs from the workload's")
	}
	// The audit is priced in the cell's own step mode, against the plain run
	// in that mode.
	mode, base := cfg.StepMode, skip
	if mode == core.StepReference {
		base = ref
	}
	aud := obs.NewAuditProbe(obs.AuditOptions{Width: cfg.FetchWidth, AllowBusOverlap: cfg.PipelinedMemory, SampleEvery: 1})
	ares, audited, err := run("obs.audit", mode, aud, nil)
	if err != nil {
		return err
	}
	if err := aud.Verify(ares.AuditFinal()); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if cfg.Policy == core.Adaptive {
		inner, err := adaptive.New(cfg.AdaptStrategy, cfg.AdaptSeed)
		if err != nil {
			return err
		}
		tc := &timedChooser{inner: inner}
		if _, _, err := run("adaptive", core.StepSkipAhead, nil, tc); err != nil {
			return err
		}
		lt.decide = append(lt.decide, tc.ns...)
	}
	lt.skip += skip
	lt.ref += ref
	lt.windows += win
	lt.audit += base
	lt.auditOn += audited
	lt.skipInsts += res.Insts
	lt.skipCycles += res.Cycles.Int64()
	lt.refCycles += res.Cycles.Int64()
	return nil
}

// runEngine runs the engine over pre-generated records. An audit stream
// violation panics inside the engine; it comes back as the error.
func runEngine(cfg core.Config, b *synth.Bench, recs []trace.Record, pred bpred.Predictor) (res core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			ae, ok := r.(*obs.AuditError)
			if !ok {
				panic(r)
			}
			err = ae
		}
	}()
	return core.Run(cfg, b.Image(), trace.NewSliceReader(recs), pred)
}

// drain reads a stream to its end and counts its instructions.
func drain(rd trace.Reader) (int64, error) {
	var n int64
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n += int64(rec.N)
	}
}

// drivePredictor predicts and trains the predictor on every branch of the
// correct path, in stream order, and returns the branch count.
func drivePredictor(p bpred.Predictor, recs []trace.Record) int64 {
	var n int64
	for _, r := range recs {
		if r.BrKind == isa.Plain {
			continue
		}
		n++
		pc := r.BranchPC()
		switch {
		case r.BrKind.IsConditional():
			p.PredictCond(pc)
			p.ResolveCond(pc, r.Taken)
		case r.BrKind.IsIndirect():
			p.PredictTarget(pc)
			p.ResolveIndirect(pc, r.Target)
			continue
		default:
			p.PredictTarget(pc)
		}
		if r.Taken {
			p.DecodeTaken(pc, r.Target)
		}
	}
	return n
}

// driveCache references every line the correct path fetches, filling on a
// miss, and returns the access count.
func driveCache(c *cache.ICache, recs []trace.Record) int64 {
	g := c.Geom()
	var n int64
	for _, r := range recs {
		last := g.Line(r.Start.Plus(r.N - 1))
		for line := g.Line(r.Start); line <= last; line++ {
			n++
			if !c.Access(line) {
				c.Fill(line)
			}
		}
	}
	return n
}

// timedChooser times every decision of the chooser it wraps.
type timedChooser struct {
	inner core.Chooser
	ns    []float64
}

func (t *timedChooser) First() core.Policy { return t.inner.First() }

func (t *timedChooser) Decide(w core.AdaptWindow) core.Policy {
	start := hosttime.Now()
	p := t.inner.Decide(w)
	t.ns = append(t.ns, float64(hosttime.Since(start).Nanoseconds()))
	return p
}

// wireCost times the JSON encoding and decoding of the cells as one batch
// and its result, and checks that decoding re-encodes to the same bytes.
func wireCost(cells []cellRecord) (enc, dec time.Duration, size int, err error) {
	batch := distsweep.Batch{Version: distsweep.WireVersion, ID: 1}
	res := distsweep.BatchResult{Version: distsweep.WireVersion, ID: 1}
	for _, c := range cells {
		batch.Jobs = append(batch.Jobs, c.spec)
		res.Results = append(res.Results, c.res)
	}
	start := hosttime.Now()
	jb, err := json.Marshal(batch)
	if err != nil {
		return 0, 0, 0, err
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return 0, 0, 0, err
	}
	enc = hosttime.Since(start)
	start = hosttime.Now()
	var batch2 distsweep.Batch
	var res2 distsweep.BatchResult
	if err := json.Unmarshal(jb, &batch2); err != nil {
		return 0, 0, 0, err
	}
	if err := json.Unmarshal(rb, &res2); err != nil {
		return 0, 0, 0, err
	}
	dec = hosttime.Since(start)
	jb2, err := json.Marshal(batch2)
	if err != nil {
		return 0, 0, 0, err
	}
	rb2, err := json.Marshal(res2)
	if err != nil {
		return 0, 0, 0, err
	}
	if string(jb2) != string(jb) || string(rb2) != string(rb) {
		return enc, dec, len(jb) + len(rb), errors.New("wire round trip changed the batch or its result")
	}
	return enc, dec, len(jb) + len(rb), nil
}
