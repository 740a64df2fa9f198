package synth

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"specfetch/internal/program"
	"specfetch/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenWalkInsts is the length of the walk each golden entry digests.
const goldenWalkInsts = 50_000

// TestImageGolden pins every generated image byte and the start of every
// correct-path stream: one line per bench with the sha256 of its
// WriteImage text and of a goldenWalkInsts walk at stream seed 1. It covers
// the 13 paper profiles, the three modern profiles, the three kernels and
// one ReorderByProfile layout, so a change to the builder, the image layout
// or the site tables that moves a single instruction or decision shows up
// here before it shows up as a shifted result.
func TestImageGolden(t *testing.T) {
	type entry struct {
		name  string
		build func() (*Bench, error)
	}
	var entries []entry
	for _, p := range append(Profiles(), ModernProfiles()...) {
		p := p
		entries = append(entries, entry{p.Name, func() (*Bench, error) { return Build(p) }})
	}
	entries = append(entries,
		entry{"loop-kernel", func() (*Bench, error) { return LoopKernel(64, 8) }},
		entry{"call-kernel", func() (*Bench, error) { return CallKernel(3, 8) }},
		entry{"dispatch-kernel", func() (*Bench, error) { return DispatchKernel(4, 6) }},
		entry{"li-reordered", func() (*Bench, error) { return ReorderByProfile(MustBuild(Li()), 100_000, 1) }},
	)

	var got bytes.Buffer
	for _, e := range entries {
		b, err := e.build()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		img := sha256.New()
		if err := program.WriteImage(img, b.Image()); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		walk, err := walkDigest(b)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		fmt.Fprintf(&got, "%-16s insts=%-7d image=%x walk=%x\n", e.name, b.Image().NumInsts(), img.Sum(nil), walk)
	}

	path := filepath.Join("testdata", "images.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("image digests differ from %s:\n got:\n%s\nwant:\n%s", path, got.Bytes(), want)
	}
}

// walkDigest hashes every record of a goldenWalkInsts walk at stream seed 1.
func walkDigest(b *Bench) ([]byte, error) {
	h := sha256.New()
	rd := trace.NewLimitReader(b.NewWalker(1), goldenWalkInsts)
	var buf [26]byte
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return h.Sum(nil), nil
		}
		if err != nil {
			return nil, err
		}
		binary.LittleEndian.PutUint64(buf[0:], uint64(rec.Start))
		binary.LittleEndian.PutUint64(buf[8:], uint64(rec.N))
		binary.LittleEndian.PutUint64(buf[16:], uint64(rec.Target))
		buf[24] = byte(rec.BrKind)
		buf[25] = 0
		if rec.Taken {
			buf[25] = 1
		}
		h.Write(buf[:])
	}
}
