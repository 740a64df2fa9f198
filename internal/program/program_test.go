package program

import (
	"runtime"
	"strings"
	"testing"

	"specfetch/internal/isa"
)

func TestBuilderBasics(t *testing.T) {
	b, err := NewBuilder(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if b.PC() != 0x1000 {
		t.Fatalf("initial PC = %s", b.PC())
	}
	b.MarkFunc("f")
	b.AppendPlain(3)
	pc := b.Append(Inst{Kind: isa.CondBranch, Target: 0x1000})
	if pc != 0x100c {
		t.Fatalf("branch PC = %s", pc)
	}
	b.MarkFunc("g")
	b.AppendPlain(2)
	b.Append(Inst{Kind: isa.Return})

	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if img.Base() != 0x1000 || img.NumInsts() != 7 {
		t.Fatalf("base %s insts %d", img.Base(), img.NumInsts())
	}
	if img.SizeBytes() != 28 {
		t.Fatalf("size %d", img.SizeBytes())
	}
	if img.End() != 0x101c {
		t.Fatalf("end %s", img.End())
	}
}

func TestBuilderMisalignedBase(t *testing.T) {
	if _, err := NewBuilder(0x1001); err == nil {
		t.Error("misaligned base accepted")
	}
}

func TestBuildRejectsBadTargets(t *testing.T) {
	b, _ := NewBuilder(0)
	b.AppendPlain(2)
	b.Append(Inst{Kind: isa.Jump, Target: 0x8000}) // outside image
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "outside image") {
		t.Errorf("out-of-image target not rejected: %v", err)
	}

	b2, _ := NewBuilder(0)
	b2.AppendPlain(2)
	b2.Append(Inst{Kind: isa.Jump, Target: 0x2}) // misaligned
	if _, err := b2.Build(); err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Errorf("misaligned target not rejected: %v", err)
	}

	b3, _ := NewBuilder(0)
	b3.AppendPlain(2)
	b3.Append(Inst{Kind: isa.Plain, Target: 0x4}) // plain instructions have no target
	b3.Append(Inst{Kind: isa.Return})
	if _, err := b3.Build(); err == nil || !strings.Contains(err.Error(), "plain instruction at 0x8 has target") {
		t.Errorf("plain instruction with a target not rejected: %v", err)
	}
}

func TestContainsAndAt(t *testing.T) {
	b, _ := NewBuilder(0x100)
	b.AppendPlain(1)
	b.Append(Inst{Kind: isa.Call, Target: 0x100})
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	if img.Contains(0xfc) || img.Contains(0x108) || img.Contains(0x102) {
		t.Error("Contains accepts out-of-image or misaligned addresses")
	}
	if !img.Contains(0x100) || !img.Contains(0x104) {
		t.Error("Contains rejects valid addresses")
	}
	if img.At(0x104).Kind != isa.Call {
		t.Errorf("At(0x104) = %v", img.At(0x104))
	}
	for _, a := range []isa.Addr{0xfc, 0x102, 0x108} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%s) outside image did not panic", a)
				}
			}()
			img.At(a)
		}()
	}
}

func TestFuncAt(t *testing.T) {
	b, _ := NewBuilder(0)
	b.MarkFunc("a")
	b.AppendPlain(4)
	b.MarkFunc("b")
	b.AppendPlain(4)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	fs := img.Funcs()
	if len(fs) != 2 || fs[0].Name != "a" || fs[1].Name != "b" {
		t.Fatalf("funcs = %+v", fs)
	}
	if fs[0].NumInsts != 4 || fs[1].NumInsts != 4 {
		t.Fatalf("func lengths = %d, %d", fs[0].NumInsts, fs[1].NumInsts)
	}
	f, ok := img.FuncAt(0x8)
	if !ok || f.Name != "a" {
		t.Errorf("FuncAt(0x8) = %+v, %v", f, ok)
	}
	f, ok = img.FuncAt(0x10)
	if !ok || f.Name != "b" {
		t.Errorf("FuncAt(0x10) = %+v, %v", f, ok)
	}
}

func TestStats(t *testing.T) {
	b, _ := NewBuilder(0)
	b.AppendPlain(10)
	b.Append(Inst{Kind: isa.CondBranch, Target: 0})
	b.Append(Inst{Kind: isa.Call, Target: 0})
	b.Append(Inst{Kind: isa.IndirectCall})
	b.Append(Inst{Kind: isa.Return})
	b.Append(Inst{Kind: isa.Jump, Target: 0})
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := img.Stats()
	want := Stats{Insts: 15, Branches: 5, Conditional: 1, Indirect: 2, Calls: 2, Returns: 1}
	if s != want {
		t.Errorf("stats = %+v, want %+v", s, want)
	}
}

// TestPlainRunsMerge: plain instructions appended one at a time and in
// runs form one run, whose length PlainRunLen reports at every slot.
func TestPlainRunsMerge(t *testing.T) {
	b, _ := NewBuilder(0x40)
	b.AppendPlain(2)
	b.Append(Inst{Kind: isa.Plain})
	b.AppendPlain(0)
	b.AppendPlain(1)
	b.Append(Inst{Kind: isa.Jump, Target: 0x40})
	b.AppendPlain(3)
	img, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := []int{4, 3, 2, 1, 0, 3, 2, 1}
	if img.NumInsts() != len(want) {
		t.Fatalf("%d insts, want %d", img.NumInsts(), len(want))
	}
	for i, w := range want {
		pc := img.Base().Plus(i)
		if got := img.PlainRunLen(pc); got != w {
			t.Errorf("PlainRunLen(%s) = %d, want %d", pc, got, w)
		}
		if got := img.At(pc); (got.Kind == isa.Plain) != (w > 0) {
			t.Errorf("At(%s) = %+v", pc, got)
		}
	}
	if got := img.At(0x50); got != (Inst{Kind: isa.Jump, Target: 0x40}) {
		t.Errorf("At(0x50) = %+v", got)
	}
}

// TestBuildAddressSpaceEnd: an image may end exactly at the top of the
// address space but not past it, and one far past it is rejected before
// anything is allocated for it.
func TestBuildAddressSpaceEnd(t *testing.T) {
	b, _ := NewBuilder(0xfffffffffffffff0)
	b.AppendPlain(3)
	img, err := b.Build()
	if err != nil {
		t.Fatalf("image ending at the top rejected: %v", err)
	}
	if !img.Contains(img.Base()) || img.PlainRunLen(img.Base()) != 3 {
		t.Errorf("image ending at the top misread")
	}
	b.AppendPlain(1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "top of the address space") {
		t.Errorf("image one instruction past the top: %v", err)
	}

	if raceEnabled {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ReadImage(strings.NewReader("image v1 base 0xffffffff00000000\nplain 4000000000\nret\n"))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("4e9 plain instructions at a high base accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("rejecting an oversized image allocated %d bytes", alloc)
	}
}

// TestAppendPlainAllocs: a plain run costs the builder a counter, not
// storage per instruction.
func TestAppendPlainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	b, _ := NewBuilder(0)
	if n := testing.AllocsPerRun(10, func() { b.AppendPlain(1 << 20) }); n != 0 {
		t.Errorf("AppendPlain(1<<20) allocated %.0f times per call", n)
	}
}
