// Package program models a static instruction image: every instruction in
// the simulated binary, addressable by byte address. The speculative fetch
// engine walks this image when it runs down a wrong path, because the
// dynamic trace only covers the correct path.
//
// An Image is one array of 16-byte slots, one per instruction. A slot holds
// the instruction's kind, its static target and the length of the run of
// plain instructions that starts at it, so At, Contains and PlainRunLen
// each read a single array. A Builder records run lengths rather than
// instructions: AppendPlain is O(1), every control transfer is kept with
// the length of the plain run before it, and Build checks the whole image
// before it allocates the slot array once, at its final size.
package program

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"specfetch/internal/isa"
)

// Inst describes one static instruction.
type Inst struct {
	// Kind classifies the instruction for the branch architecture.
	Kind isa.Kind
	// Target is the statically-known destination for direct control
	// transfers (CondBranch, Jump, Call). It is zero for Plain and for
	// indirect transfers, whose destinations are only known dynamically.
	Target isa.Addr
}

// slot is one instruction of an image. run sits in the padding Inst leaves
// after Kind, so a slot is as large as an Inst.
type slot struct {
	kind isa.Kind
	// run is the number of consecutive Plain instructions starting at this
	// slot, 0 for a control transfer. Trace generators and the wrong-path
	// fetch loop use it to consume whole basic-block prefixes at once.
	run    int32
	target isa.Addr
}

// maxInsts is the largest image a Builder builds, so that every plain-run
// length fits a slot's int32.
const maxInsts = math.MaxInt32

// Image is an immutable static code image. Addresses run from Base to
// Base + 4*NumInsts; every slot holds an instruction.
type Image struct {
	base  isa.Addr
	slots []slot
	// funcs records function entry addresses, sorted, for tooling.
	funcs []Func
}

// Func names a function's extent inside the image.
type Func struct {
	Name  string
	Entry isa.Addr
	// NumInsts is the function length in instructions.
	NumInsts int
}

// transfer is a control transfer as a Builder records it: the instruction
// and the number of plain instructions appended just before it.
type transfer struct {
	kind   isa.Kind
	before int32
	target isa.Addr
}

// maxChunk is the most transfers a Builder stores in one block. Blocks
// start small and double up to it; a full block is never copied, so
// recording transfers costs about their final size, where one growing
// slice would allocate and copy about three times that.
const maxChunk = 1024

// Builder accumulates instructions for an Image as runs: control
// transfers, each with the plain run before it, plus the plain run after
// the last one.
type Builder struct {
	base isa.Addr
	// n counts the instructions appended so far, and plain those since the
	// last control transfer.
	n     int
	plain int
	// chunks hold the transfers in order.
	chunks [][]transfer
	funcs  []Func
	// err is the first malformed instruction appended; Build returns it.
	err error
}

// NewBuilder starts an image at the given base address. The base must be
// instruction aligned.
func NewBuilder(base isa.Addr) (*Builder, error) {
	if uint64(base)%isa.InstBytes != 0 {
		return nil, fmt.Errorf("program: base %s is not %d-byte aligned", base, isa.InstBytes)
	}
	return &Builder{base: base}, nil
}

// PC returns the address the next appended instruction will occupy.
func (b *Builder) PC() isa.Addr { return b.base.Plus(b.n) }

// Append adds one instruction and returns its address. A Plain
// instruction must have no Target; Build reports one that has.
func (b *Builder) Append(in Inst) isa.Addr {
	pc := b.PC()
	if in.Kind == isa.Plain {
		if in.Target != 0 && b.err == nil {
			b.err = fmt.Errorf("program: plain instruction at %s has target %s", pc, in.Target)
		}
		b.AppendPlain(1)
		return pc
	}
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
		size := 16
		if last >= 0 {
			size = min(2*cap(b.chunks[last]), maxChunk)
		}
		b.chunks = append(b.chunks, make([]transfer, 0, size))
		last++
	}
	// A plain run too long for int32 makes n exceed maxInsts, and Build
	// rejects the image before it reads before.
	b.chunks[last] = append(b.chunks[last], transfer{kind: in.Kind, before: int32(b.plain), target: in.Target})
	b.n++
	b.plain = 0
	return pc
}

// AppendPlain adds n plain instructions in constant time.
func (b *Builder) AppendPlain(n int) {
	if n > 0 {
		// Clamping keeps the counts from wrapping; an image this large
		// fails in Build anyway.
		n = min(n, maxInsts+1)
		b.n += n
		b.plain += n
	}
}

// MarkFunc records a function entry at the current PC.
func (b *Builder) MarkFunc(name string) {
	b.funcs = append(b.funcs, Func{Name: name, Entry: b.PC()})
}

// Build finalizes the image. Function lengths are derived from the next
// function's entry (or the image end). The image must end at or below the
// top of the address space, hold at most maxInsts instructions, and have
// every direct-branch target land inside it; Build checks all of that
// before it allocates the image.
func (b *Builder) Build() (*Image, error) {
	if b.err != nil {
		return nil, b.err
	}
	if uint64(b.n) > (math.MaxUint64-uint64(b.base))/isa.InstBytes {
		return nil, fmt.Errorf("program: %d instructions at base %s run past the top of the address space", b.n, b.base)
	}
	if b.n > maxInsts {
		return nil, fmt.Errorf("program: image has more than %d instructions", maxInsts)
	}
	img := &Image{base: b.base, funcs: b.funcs}
	end := b.base.Plus(b.n)
	pc := b.base
	for _, chunk := range b.chunks {
		for _, t := range chunk {
			pc = pc.Plus(int(t.before))
			if t.kind == isa.CondBranch || t.kind == isa.Jump || t.kind == isa.Call {
				if uint64(t.target)%isa.InstBytes != 0 {
					return nil, fmt.Errorf("program: instruction %s has misaligned target %s", pc, t.target)
				}
				if t.target < b.base || t.target >= end {
					return nil, fmt.Errorf("program: instruction %s has target %s outside image [%s,%s)",
						pc, t.target, b.base, end)
				}
			}
			pc = pc.Next()
		}
	}

	img.slots = make([]slot, b.n)
	i := 0
	plainRun := func(n int) {
		for k := int32(n); k > 0; k-- {
			img.slots[i] = slot{kind: isa.Plain, run: k}
			i++
		}
	}
	for _, chunk := range b.chunks {
		for _, t := range chunk {
			plainRun(int(t.before))
			img.slots[i] = slot{kind: t.kind, target: t.target}
			i++
		}
	}
	plainRun(b.plain)

	sort.Slice(img.funcs, func(i, j int) bool { return img.funcs[i].Entry < img.funcs[j].Entry })
	for i := range img.funcs {
		fend := end
		if i+1 < len(img.funcs) {
			fend = img.funcs[i+1].Entry
		}
		img.funcs[i].NumInsts = int(fend-img.funcs[i].Entry) / isa.InstBytes
	}
	return img, nil
}

// Base returns the lowest instruction address.
func (img *Image) Base() isa.Addr { return img.base }

// End returns the first address past the image.
func (img *Image) End() isa.Addr { return img.base.Plus(len(img.slots)) }

// NumInsts returns the static instruction count.
func (img *Image) NumInsts() int { return len(img.slots) }

// SizeBytes returns the code footprint in bytes.
func (img *Image) SizeBytes() int { return len(img.slots) * isa.InstBytes }

// Contains reports whether a is a valid instruction address in the image.
func (img *Image) Contains(a isa.Addr) bool { return img.index(a) < uint64(len(img.slots)) }

// index returns the slot index of address a. Rotating the byte offset
// right by two bits both divides it by isa.InstBytes (4) and, for a
// misaligned address, moves its low bits to the top, so one comparison
// with the slot count rejects addresses below, above and between
// instructions.
func (img *Image) index(a isa.Addr) uint64 {
	return bits.RotateLeft64(uint64(a-img.base), -2)
}

// At returns the instruction at address a. Like PlainRunLen, it panics
// with an index-out-of-range error if a is not an instruction address in
// the image; callers on speculative paths check Contains first. Neither
// builds a panic message of its own, which keeps both small enough to
// inline into the fetch loops, where the compiler can then drop the bounds
// check that Contains already made.
func (img *Image) At(a isa.Addr) Inst {
	s := &img.slots[img.index(a)]
	return Inst{Kind: s.kind, Target: s.target}
}

// PlainRunLen returns the number of consecutive Plain instructions starting
// at address a (0 when a holds a control transfer). a must be inside the
// image.
func (img *Image) PlainRunLen(a isa.Addr) int { return int(img.slots[img.index(a)].run) }

// Funcs returns the recorded functions, sorted by entry address.
func (img *Image) Funcs() []Func { return img.funcs }

// FuncAt returns the function containing address a, if any.
func (img *Image) FuncAt(a isa.Addr) (Func, bool) {
	i := sort.Search(len(img.funcs), func(i int) bool { return img.funcs[i].Entry > a })
	if i == 0 {
		return Func{}, false
	}
	f := img.funcs[i-1]
	if a >= f.Entry && a < f.Entry.Plus(f.NumInsts) {
		return f, true
	}
	return Func{}, false
}

// Stats summarizes the static mix of the image.
type Stats struct {
	Insts       int
	Branches    int
	Conditional int
	Indirect    int
	Calls       int
	Returns     int
}

// Stats computes the static instruction mix.
func (img *Image) Stats() Stats {
	var s Stats
	s.Insts = len(img.slots)
	for _, sl := range img.slots {
		k := sl.kind
		if !k.IsBranch() {
			continue
		}
		s.Branches++
		switch {
		case k.IsConditional():
			s.Conditional++
		case k.IsIndirect():
			s.Indirect++
		}
		if k.IsCall() {
			s.Calls++
		}
		if k == isa.Return {
			s.Returns++
		}
	}
	return s
}
