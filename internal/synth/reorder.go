// Profile-guided code layout — the paper's closing "further study" item
// ("software techniques, like profile driven basic-block reordering").
//
// ReorderByProfile runs a profiling walk over a benchmark, ranks functions
// by dynamic execution frequency, and rebuilds the static image with the
// hottest functions packed together at the bottom of the address space.
// Dynamic behaviour is unchanged (the same sites make the same decisions);
// only addresses move, so any I-cache improvement is purely a layout effect.
package synth

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"specfetch/internal/isa"
	"specfetch/internal/program"
	"specfetch/internal/trace"
)

// ReorderByProfile returns a new benchmark with hotness-ordered layout. The
// profiling walk uses the given stream seed and instruction budget; use the
// same seed later to evaluate on the exact training trace, or a different
// one for a train/test split.
func ReorderByProfile(b *Bench, profileInsts int64, streamSeed uint64) (*Bench, error) {
	counts, err := profileFuncs(b, profileInsts, streamSeed)
	if err != nil {
		return nil, err
	}

	funcs := b.img.Funcs()
	if len(funcs) == 0 {
		return nil, errors.New("synth: image has no functions to reorder")
	}
	order := make([]int, len(funcs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return counts[funcs[order[i]].Entry] > counts[funcs[order[j]].Entry]
	})

	return relayout(b, order)
}

// profileFuncs counts dynamic instructions per function entry.
func profileFuncs(b *Bench, insts int64, streamSeed uint64) (map[isa.Addr]int64, error) {
	counts := make(map[isa.Addr]int64)
	rd := trace.NewLimitReader(b.NewWalker(streamSeed), insts)
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return counts, nil
		}
		if err != nil {
			return nil, fmt.Errorf("synth: profiling walk: %w", err)
		}
		if f, ok := b.img.FuncAt(rec.Start); ok {
			counts[f.Entry] += int64(rec.N)
		}
	}
}

// relayout rebuilds the benchmark with functions emitted in the given order
// (indices into the image's function list).
func relayout(b *Bench, order []int) (*Bench, error) {
	oldImg := b.img
	funcs := oldImg.Funcs()

	// First pass: assign each function its new line-aligned entry address.
	newEntry := make(map[isa.Addr]isa.Addr, len(funcs))
	pc := oldImg.Base()
	for _, idx := range order {
		f := funcs[idx]
		if off := int(uint64(pc) % isa.DefaultLineBytes); off != 0 {
			pc = pc.Plus((isa.DefaultLineBytes - off) / isa.InstBytes)
		}
		newEntry[f.Entry] = pc
		pc = pc.Plus(f.NumInsts)
	}

	// remap translates any old instruction address through its containing
	// function's displacement.
	remap := func(a isa.Addr) (isa.Addr, error) {
		f, ok := oldImg.FuncAt(a)
		if !ok {
			return 0, fmt.Errorf("synth: address %s outside any function", a)
		}
		return newEntry[f.Entry] + (a - f.Entry), nil
	}

	// Second pass: emit code.
	nb, err := program.NewBuilder(oldImg.Base())
	if err != nil {
		return nil, err
	}
	for _, idx := range order {
		f := funcs[idx]
		alignToLine(nb)
		if nb.PC() != newEntry[f.Entry] {
			return nil, fmt.Errorf("synth: layout drift for %s: planned %s, emitting at %s",
				f.Name, newEntry[f.Entry], nb.PC())
		}
		nb.MarkFunc(f.Name)
		for i := 0; i < f.NumInsts; i++ {
			pc := f.Entry.Plus(i)
			if run := oldImg.PlainRunLen(pc); run > 0 {
				run = min(run, f.NumInsts-i)
				nb.AppendPlain(run)
				i += run - 1
				continue
			}
			in := oldImg.At(pc)
			if in.Kind == isa.CondBranch || in.Kind == isa.Jump || in.Kind == isa.Call {
				t, err := remap(in.Target)
				if err != nil {
					return nil, err
				}
				in.Target = t
			}
			nb.Append(in)
		}
	}
	newImg, err := nb.Build()
	if err != nil {
		return nil, fmt.Errorf("synth: rebuilding reordered image: %w", err)
	}

	// Remap the dynamic-site metadata; site numbers do not change.
	newConds := make([]condMeta, len(b.conds))
	for i, m := range b.conds {
		if m.pc, err = remap(m.pc); err != nil {
			return nil, err
		}
		newConds[i] = m
	}
	newIndirs := make([]indirectMeta, len(b.indirs))
	for i, m := range b.indirs {
		if m.pc, err = remap(m.pc); err != nil {
			return nil, err
		}
		targets := make([]isa.Addr, len(m.targets))
		for j, t := range m.targets {
			if targets[j], err = remap(t); err != nil {
				return nil, err
			}
		}
		m.targets = targets
		newIndirs[i] = m
	}
	entry, err := remap(b.entry)
	if err != nil {
		return nil, err
	}
	loopStart, err := remap(b.loopStart)
	if err != nil {
		return nil, err
	}

	return newBench(b.profile, newImg, entry, loopStart, newConds, newIndirs)
}
