package synth

import (
	"fmt"

	"specfetch/internal/isa"
	"specfetch/internal/program"
	"specfetch/internal/trace"
	"specfetch/internal/xrand"
)

// maxPlainRun caps how many instructions a single plain trace record may
// carry before being split.
const maxPlainRun = 64

// Walker executes the benchmark's control flow and emits the correct-path
// trace, block by block. It implements trace.Reader and never returns
// io.EOF (the driver loops forever); wrap it with trace.NewLimitReader to
// bound the run.
type Walker struct {
	bench *Bench
	rng   *xrand.Rand
	pc    isa.Addr
	stack []isa.Addr
	// patPos tracks each patterned site's position in its outcome
	// pattern, indexed by the site's seq.
	patPos []int32
	// iter counts completed driver-loop iterations, driving phased
	// execution.
	iter int64
}

// NewWalker starts a fresh dynamic stream. Different streamSeed values give
// different (but reproducible) dynamic behaviour over the same static image.
func (b *Bench) NewWalker(streamSeed uint64) *Walker {
	return &Walker{
		bench:  b,
		rng:    xrand.New(b.profile.Seed ^ streamSeed ^ 0xabcdef0123456789),
		pc:     b.entry,
		patPos: make([]int32, b.patterns),
	}
}

// NewReader returns a bounded correct-path trace of maxInsts instructions.
func (b *Bench) NewReader(streamSeed uint64, maxInsts int64) trace.Reader {
	return trace.NewLimitReader(b.NewWalker(streamSeed), maxInsts)
}

// Next implements trace.Reader.
func (w *Walker) Next() (trace.Record, error) {
	start := w.pc
	if start == w.bench.loopStart {
		w.iter++
	}
	img := w.bench.img
	n := 0
	for {
		if !img.Contains(w.pc) {
			return trace.Record{}, fmt.Errorf("synth: walker left the image at %s (block start %s)", w.pc, start)
		}
		// Consume a whole run of plain instructions at once; record contents
		// are identical to the per-instruction walk, including the split at
		// maxPlainRun and the off-image error address.
		if run := img.PlainRunLen(w.pc); run > 0 {
			if n+run >= maxPlainRun {
				take := maxPlainRun - n
				w.pc = w.pc.Plus(take)
				return trace.Record{Start: start, N: maxPlainRun, BrKind: isa.Plain}, nil
			}
			n += run
			w.pc = w.pc.Plus(run)
			continue
		}
		in := img.At(w.pc)
		n++
		rec, err := w.branch(in, start, n)
		return rec, err
	}
}

// branch decides the dynamic outcome of the control transfer at w.pc and
// finishes the record.
func (w *Walker) branch(in program.Inst, start isa.Addr, n int) (trace.Record, error) {
	pc := w.pc
	rec := trace.Record{Start: start, N: n, BrKind: in.Kind}
	switch in.Kind {
	case isa.CondBranch:
		s := w.bench.siteAt(pc)
		if s < 0 {
			return trace.Record{}, fmt.Errorf("synth: conditional at %s has no site metadata", pc)
		}
		meta := &w.bench.conds[s]
		switch {
		case meta.patLen > 0:
			pos := &w.patPos[meta.seq]
			rec.Taken = meta.pattern>>*pos&1 != 0
			if *pos++; *pos == int32(meta.patLen) {
				*pos = 0
			}
		case meta.class == classGuard && w.bench.profile.PhaseSites > 0:
			// Phased execution: the guard skips its call (taken) unless the
			// site is inside the currently active window.
			takenP := 0.97
			if w.inPhase(int(meta.seq)) {
				takenP = 1 - w.bench.profile.DriverCallExecP
			}
			rec.Taken = w.rng.Bool(takenP)
		default:
			rec.Taken = w.rng.Bool(meta.takenP)
		}
		if rec.Taken {
			rec.Target = in.Target
		}

	case isa.Jump:
		rec.Taken = true
		rec.Target = in.Target

	case isa.Call:
		rec.Taken = true
		rec.Target = in.Target
		w.stack = append(w.stack, pc.Next())

	case isa.Return:
		if len(w.stack) == 0 {
			return trace.Record{}, fmt.Errorf("synth: return at %s with empty call stack", pc)
		}
		rec.Taken = true
		rec.Target = w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]

	case isa.IndirectCall, isa.IndirectJump:
		s := w.bench.siteAt(pc)
		if s < 0 {
			return trace.Record{}, fmt.Errorf("synth: indirect transfer at %s has no site metadata", pc)
		}
		meta := &w.bench.indirs[s]
		rec.Taken = true
		rec.Target = meta.targets[meta.zipf.Draw(w.rng)]
		if in.Kind == isa.IndirectCall {
			w.stack = append(w.stack, pc.Next())
		}

	default:
		return trace.Record{}, fmt.Errorf("synth: unexpected kind %s at %s", in.Kind, pc)
	}
	w.pc = rec.NextPC()
	return rec, nil
}

// inPhase reports whether driver call site idx is inside the active phase
// window for the walker's current iteration. The window slides by half its
// width every PhaseIters iterations, wrapping around the site list.
func (w *Walker) inPhase(idx int) bool {
	p := w.bench.profile
	n := p.DriverCallSites
	step := p.PhaseSites / 2
	if step < 1 {
		step = 1
	}
	base := int(w.iter/int64(p.PhaseIters)) * step % n
	off := idx - base
	if off < 0 {
		off += n
	}
	return off < p.PhaseSites
}
