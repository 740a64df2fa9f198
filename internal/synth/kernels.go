// Microbenchmark kernels: tiny, fully controlled workloads for studying
// the fetch policies in isolation, complementing the calibrated benchmark
// suite. Each kernel's cache and branch behaviour is analytically known, so
// tests (and users) can reason about exact expectations.
package synth

import (
	"fmt"

	"specfetch/internal/isa"
	"specfetch/internal/program"
	"specfetch/internal/xrand"
)

// LoopKernel builds a single loop of bodyInsts plain instructions closed by
// a backward conditional taken (trips-1)/trips of the time, wrapped in a
// driver that re-enters the loop forever. With a cache at least as large as
// the body, the steady-state miss ratio is ~0; with a smaller cache, every
// line misses once per traversal.
func LoopKernel(bodyInsts int, trips float64) (*Bench, error) {
	if bodyInsts < 1 {
		return nil, fmt.Errorf("synth: loop kernel needs a positive body, got %d", bodyInsts)
	}
	if trips < 1 {
		return nil, fmt.Errorf("synth: loop kernel needs trips >= 1, got %.2f", trips)
	}
	b, err := program.NewBuilder(imageBase)
	if err != nil {
		return nil, err
	}
	b.MarkFunc("loop")
	entry := b.PC()
	loopTop := b.PC()
	b.AppendPlain(bodyInsts)
	condPC := b.Append(program.Inst{Kind: isa.CondBranch, Target: loopTop})
	conds := []condMeta{{pc: condPC, takenP: 1 - 1/trips, class: classLoop}}
	// Exited: jump straight back in (the driver).
	b.Append(program.Inst{Kind: isa.Jump, Target: loopTop})

	img, err := b.Build()
	if err != nil {
		return nil, err
	}
	return newBench(kernelProfile("loop-kernel"), img, entry, loopTop, conds, nil)
}

// CallKernel builds a chain of depth nested functions, each with bodyInsts
// plain instructions before calling the next; the driver calls the chain
// head forever. It isolates call/return prediction (BTB and RAS behaviour).
func CallKernel(depth, bodyInsts int) (*Bench, error) {
	if depth < 1 || bodyInsts < 1 {
		return nil, fmt.Errorf("synth: call kernel needs positive depth and body, got %d/%d", depth, bodyInsts)
	}
	b, err := program.NewBuilder(imageBase)
	if err != nil {
		return nil, err
	}
	// Generate leaf-first so call targets exist.
	entries := make([]isa.Addr, depth)
	for i := depth - 1; i >= 0; i-- {
		b.MarkFunc(fmt.Sprintf("chain%02d", i))
		entries[i] = b.PC()
		b.AppendPlain(bodyInsts)
		if i < depth-1 {
			b.Append(program.Inst{Kind: isa.Call, Target: entries[i+1]})
			b.AppendPlain(1)
		}
		b.Append(program.Inst{Kind: isa.Return})
	}
	b.MarkFunc("main")
	entry := b.PC()
	loopTop := b.PC()
	b.Append(program.Inst{Kind: isa.Call, Target: entries[0]})
	b.AppendPlain(1)
	b.Append(program.Inst{Kind: isa.Jump, Target: loopTop})
	img, err := b.Build()
	if err != nil {
		return nil, err
	}
	return newBench(kernelProfile("call-kernel"), img, entry, loopTop, nil, nil)
}

// DispatchKernel builds an interpreter-style indirect dispatch loop: an
// indirect jump selects one of fanout handler blocks (uniformly), each of
// handlerInsts plain instructions, jumping back to the dispatch point. It
// isolates BTB target misprediction and wrong-path behaviour at indirect
// branches.
func DispatchKernel(fanout, handlerInsts int) (*Bench, error) {
	if fanout < 2 || handlerInsts < 1 {
		return nil, fmt.Errorf("synth: dispatch kernel needs fanout >= 2 and a positive handler, got %d/%d", fanout, handlerInsts)
	}
	b, err := program.NewBuilder(imageBase)
	if err != nil {
		return nil, err
	}
	b.MarkFunc("dispatch")
	entry := b.PC()
	loopTop := b.PC()
	b.AppendPlain(2)
	ijPC := b.PC()
	// Layout: [ijmp][handler0 ... jump top][handler1 ... jump top]...
	handlers := make([]isa.Addr, fanout)
	off := 1
	for i := range handlers {
		handlers[i] = ijPC.Plus(off)
		off += handlerInsts + 1
	}
	b.Append(program.Inst{Kind: isa.IndirectJump})
	for range handlers {
		b.AppendPlain(handlerInsts)
		b.Append(program.Inst{Kind: isa.Jump, Target: loopTop})
	}
	indirs := []indirectMeta{{pc: ijPC, targets: handlers, zipf: xrand.NewZipf(fanout, 0.01)}}

	img, err := b.Build()
	if err != nil {
		return nil, err
	}
	return newBench(kernelProfile("dispatch-kernel"), img, entry, loopTop, nil, indirs)
}

// kernelProfile is a minimal valid profile carried by kernel benches (the
// walker only consults Seed and the phase fields).
func kernelProfile(name string) Profile {
	return Profile{
		Name: name, Lang: "kernel",
		Description: "hand-built microbenchmark kernel",
		Seed:        hashName(name),
		NumFuncs:    1, SegmentsPerFunc: [2]int{1, 1},
		MeanBlockLen: 4, MeanLoopTrip: 4, LoopBodyMul: 1,
		IndirectFanout: 2, BiasNear: 0.05, HardRange: [2]float64{0.3, 0.7},
		ZipfS: 1, CallDepth: 1, DriverCallSites: 1, DriverCallExecP: 0.5,
	}
}
