package experiments

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"

	"specfetch/internal/isa"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// TestTraceMemoReplayIdentity: for every profile, at two budgets (one short,
// one spanning several chunks) and two stream seeds, a replay cursor over
// the memoized stream yields exactly the records and the terminal error of
// a fresh bounded walker, and vouches for the stream (every synthetic
// record is valid).
func TestTraceMemoReplayIdentity(t *testing.T) {
	t.Parallel()
	for _, p := range synth.Profiles() {
		b, err := synth.Build(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, insts := range []int64{20_000, 600_000} {
			for _, seed := range []uint64{defaultStreamSeed, 1001} {
				s := &sharedTrace{key: traceKey{b: b, seed: seed, insts: insts}, cache: new(cellCache)}
				got := s.reader()
				if got == nil {
					t.Fatalf("%s/%d/%d: synthetic stream was not memoized", p.Name, insts, seed)
				}
				if pv, ok := got.(trace.PreValidated); !ok || !pv.PreValidatedTrace() {
					t.Errorf("%s/%d/%d: replay cursor does not vouch for a valid stream", p.Name, insts, seed)
				}
				want := trace.NewLimitReader(b.NewWalker(seed), traceLimit(insts))
				n := assertSameStream(t, got, want)
				if insts > 100_000 && n <= chunkRecs {
					t.Errorf("%s/%d/%d: %d records do not cross a chunk boundary", p.Name, insts, seed, n)
				}
			}
		}
	}
}

// TestTraceMemoConcurrentReaders: pool workers that reach one shared stream
// at once generate it once and each replay all of it.
func TestTraceMemoConcurrentReaders(t *testing.T) {
	t.Parallel()
	b := synth.MustBuild(synth.Groff())
	const insts = 50_000
	s := &sharedTrace{key: traceKey{b: b, seed: defaultStreamSeed, insts: insts}, cache: new(cellCache)}
	var wg sync.WaitGroup
	counts := make([]int, 4)
	for g := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rd := s.reader()
			if rd == nil {
				return
			}
			for _, err := rd.Next(); err == nil; _, err = rd.Next() {
				counts[g]++
			}
		}()
	}
	wg.Wait()
	want, err := trace.Collect(trace.NewLimitReader(b.NewWalker(defaultStreamSeed), traceLimit(insts)))
	if err != nil {
		t.Fatal(err)
	}
	for g, n := range counts {
		if n != len(want) {
			t.Errorf("reader %d replayed %d records, want %d", g, n, len(want))
		}
	}
}

// assertSameStream drains both readers in lockstep and requires equal
// records, then equal terminal errors, twice over (an exhausted stream
// keeps reporting its error). It returns the number of records.
func assertSameStream(t *testing.T, got, want trace.Reader) int {
	t.Helper()
	for i := 0; ; i++ {
		g, gerr := got.Next()
		w, werr := want.Next()
		if gerr != nil || werr != nil {
			if !sameErr(gerr, werr) {
				t.Fatalf("record %d: terminal error %v, want %v", i, gerr, werr)
			}
			g, gerr = got.Next()
			if g != (trace.Record{}) || !sameErr(gerr, werr) {
				t.Fatalf("after the end: %+v, %v; want the terminal error %v again", g, gerr, werr)
			}
			return i
		}
		if g != w {
			t.Fatalf("record %d: replay %+v, walker %+v", i, g, w)
		}
	}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return errors.Is(a, io.EOF) == errors.Is(b, io.EOF) && a.Error() == b.Error()
}

// errReader yields its records, then err.
type errReader struct {
	recs []trace.Record
	err  error
}

func (r *errReader) Next() (trace.Record, error) {
	if len(r.recs) == 0 {
		return trace.Record{}, r.err
	}
	rec := r.recs[0]
	r.recs = r.recs[1:]
	return rec, nil
}

// TestTraceMemoPacking: hand-built streams round-trip through the packed
// form, including every kind, both field bounds, a mid-stream fault and an
// invalid record (replayed without the vouching), and any record that
// cannot be rebuilt exactly keeps the whole stream out of the memo.
func TestTraceMemoPacking(t *testing.T) {
	t.Parallel()
	const base = isa.Addr(0x10000)
	const maxWord = 1<<22 - 1
	ok := []trace.Record{
		{Start: base, N: 3, BrKind: isa.CondBranch, Taken: true, Target: base.Plus(40)},
		{Start: base.Plus(40), N: 64, BrKind: isa.Plain},
		{Start: base.Plus(104), N: 2, BrKind: isa.CondBranch},
		{Start: base.Plus(106), N: 1, BrKind: isa.Jump, Taken: true, Target: base.Plus(200)},
		{Start: base.Plus(200), N: 64, BrKind: isa.Call, Taken: true, Target: base.Plus(maxWord)},
		{Start: base.Plus(maxWord), N: 1, BrKind: isa.IndirectJump, Taken: true, Target: base.Plus(500)},
		{Start: base.Plus(500), N: 7, BrKind: isa.IndirectCall, Taken: true, Target: base.Plus(900)},
		{Start: base.Plus(900), N: 5, BrKind: isa.Return, Taken: true, Target: base},
	}
	kinds := map[isa.Kind]bool{}
	for _, r := range ok {
		kinds[r.BrKind] = true
	}
	for k := isa.Plain; k <= isa.IndirectCall; k++ {
		if !kinds[k] {
			t.Fatalf("the packable stream has no %v record", k)
		}
	}
	fault := errors.New("walker fault")
	invalid := append(append([]trace.Record(nil), ok...),
		trace.Record{Start: base, N: 1, BrKind: isa.Jump})

	for _, tc := range []struct {
		name  string
		recs  []trace.Record
		err   error
		valid bool
	}{
		{"eof", ok, io.EOF, true},
		{"fault", ok, fault, true},
		{"empty", nil, fault, true},
		{"invalid", invalid, io.EOF, false},
	} {
		s := packStream(&errReader{recs: tc.recs, err: tc.err}, base, newTestChunk)
		if s == nil {
			t.Fatalf("%s: packable stream refused", tc.name)
		}
		got := &replayReader{s: s, pc: s.start}
		if got.PreValidatedTrace() != tc.valid {
			t.Errorf("%s: PreValidatedTrace = %v, want %v", tc.name, got.PreValidatedTrace(), tc.valid)
		}
		assertSameStream(t, got, &errReader{recs: tc.recs, err: tc.err})
	}

	for _, tc := range []struct {
		name string
		bad  trace.Record
	}{
		{"N=65", trace.Record{Start: base.Plus(1), N: 65, BrKind: isa.Plain}},
		{"N=0", trace.Record{Start: base.Plus(1), N: 0, BrKind: isa.Plain}},
		{"negative N", trace.Record{Start: base.Plus(1), N: -1, BrKind: isa.Plain}},
		{"kind past 7", trace.Record{Start: base.Plus(1), N: 1, BrKind: 8}},
		{"target below base", trace.Record{Start: base.Plus(1), N: 1, BrKind: isa.Jump, Taken: true, Target: base - isa.InstBytes}},
		{"target at 2^22 words", trace.Record{Start: base.Plus(1), N: 1, BrKind: isa.Jump, Taken: true, Target: base.Plus(1 << 22)}},
		{"misaligned target", trace.Record{Start: base.Plus(1), N: 1, BrKind: isa.Jump, Taken: true, Target: base + 2}},
		{"not-taken target", trace.Record{Start: base.Plus(1), N: 1, BrKind: isa.CondBranch, Target: base}},
		{"discontinuous start", trace.Record{Start: base.Plus(2), N: 1, BrKind: isa.Plain}},
	} {
		recs := []trace.Record{{Start: base, N: 1, BrKind: isa.Plain}, tc.bad, {Start: tc.bad.NextPC(), N: 1}}
		if s := packStream(&errReader{recs: recs, err: io.EOF}, base, newTestChunk); s != nil {
			t.Errorf("%s: stream with %+v was memoized", tc.name, tc.bad)
		}
	}
}

// newTestChunk is a packStream chunk source outside any cellCache.
func newTestChunk() *memoChunk { return new(memoChunk) }

// FuzzTraceMemoPack: packStream either refuses an arbitrary record
// sequence or replays exactly its records and terminal error, vouching for
// it exactly when every record validates. It refuses exactly the sequences
// with a record outside the packed bounds, checked against a model of them.
// Each record takes 6 input bytes: N as a signed byte; the kind (low 4
// bits), taken (bit 4) and a jump away from the expected start (bit 5);
// a 3-byte target word offset; and target twists (bit 0 misaligns it, bit
// 1 puts it below the base, bit 2 keeps it on a not-taken record). The
// first byte picks the terminal error.
func FuzzTraceMemoPack(f *testing.F) {
	f.Add([]byte{0, 3, 0x11, 10, 0, 0, 0, 64, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 64, 0x13, 0xff, 0xff, 0x3f, 0, 65, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 1, 0x15, 0, 0, 0x40, 0, 1, 0x02, 0, 0, 0, 4})
	f.Add([]byte{1, 0, 0x20, 0, 0, 0, 0, 2, 0x18, 5, 0, 0, 3})
	f.Add([]byte{0, 1, 0x02, 0, 0, 0, 0, 4, 0x01, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const base = isa.Addr(0x40000)
		if len(data) == 0 {
			return
		}
		end := io.EOF
		if data[0]&1 != 0 {
			end = errors.New("walker fault")
		}
		var recs []trace.Record
		pc, packable, valid := base, true, true
		for rest := data[1:]; len(rest) >= 6; rest = rest[6:] {
			r := trace.Record{Start: pc, N: int(int8(rest[0])), BrKind: isa.Kind(rest[1] & 0xf), Taken: rest[1]&0x10 != 0}
			if rest[1]&0x20 != 0 {
				r.Start = base.Plus(int(rest[2]))
			}
			words := uint64(rest[2]) | uint64(rest[3])<<8 | uint64(rest[4])<<16
			if r.Taken || rest[5]&4 != 0 {
				r.Target = base + isa.Addr(words*isa.InstBytes)
				if rest[5]&1 != 0 {
					r.Target += 2
				}
				if rest[5]&2 != 0 {
					r.Target = base - isa.Addr(words*isa.InstBytes) - isa.InstBytes
				}
			}
			off := uint64(r.Target - base)
			fits := (len(recs) == 0 || r.Start == pc) && r.N >= 1 && r.N <= 64 && r.BrKind < 8
			if r.Taken {
				fits = fits && r.Target >= base && off%isa.InstBytes == 0 && off/isa.InstBytes < 1<<22
			} else {
				fits = fits && r.Target == 0
			}
			packable = packable && fits
			valid = valid && r.Validate() == nil
			recs = append(recs, r)
			pc = r.Start.Plus(r.N)
			if r.Taken {
				pc = r.Target
			}
		}
		s := packStream(&errReader{recs: recs, err: end}, base, newTestChunk)
		if (s != nil) != packable {
			t.Fatalf("packStream memoized = %v, want %v for %+v", s != nil, packable, recs)
		}
		if s == nil {
			return
		}
		got := &replayReader{s: s, pc: s.start}
		if got.PreValidatedTrace() != valid {
			t.Errorf("PreValidatedTrace = %v, want %v", got.PreValidatedTrace(), valid)
		}
		assertSameStream(t, got, &errReader{recs: recs, err: end})
	})
}

// TestTraceMemoPacksEveryProfile: every stream the paper and modern
// profiles walk at 2M instructions packs, so no sweep cell of theirs falls
// back to walking. The largest image, search's, spans 200,657 words of the
// 2^22 a record can reach.
func TestTraceMemoPacksEveryProfile(t *testing.T) {
	t.Parallel()
	largest := ""
	words := 0
	for _, p := range append(synth.Profiles(), synth.ModernProfiles()...) {
		b, err := benchFor(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if n := b.Image().NumInsts(); n > words {
			largest, words = p.Name, n
		}
		var one memoChunk
		rd := trace.NewLimitReader(b.NewWalker(defaultStreamSeed), traceLimit(2_000_000))
		if packStream(rd, b.Image().Base(), func() *memoChunk { return &one }) == nil {
			t.Errorf("%s: the 2M-instruction stream does not pack", p.Name)
		}
	}
	t.Logf("largest image: %s, %d words", largest, words)
}

// TestTraceMemoAllocs guards the memo's footprint: generating the gcc
// stream at 400k instructions allocates about 4 bytes per record plus at
// most one partly filled chunk. Storing whole trace.Records in a growing
// slice cost about 64 bytes per record.
func TestTraceMemoAllocs(t *testing.T) {
	b := synth.MustBuild(synth.GCC())
	s := &sharedTrace{key: traceKey{b: b, seed: defaultStreamSeed, insts: 400_000}, cache: new(cellCache)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rd := s.reader()
	runtime.ReadMemStats(&after)
	if rd == nil {
		t.Fatal("gcc stream was not memoized")
	}
	recs := s.stream.n
	alloc := after.TotalAlloc - before.TotalAlloc
	const chunkBytes = chunkRecs * 4
	limit := uint64(5*recs + chunkBytes)
	t.Logf("%d records, %d bytes allocated (%.2f B/record), limit %d", recs, alloc, float64(alloc)/float64(recs), limit)
	if alloc > limit {
		t.Errorf("generating %d records allocated %d bytes, want at most %d (5 B/record plus one chunk)", recs, alloc, limit)
	}
}

// BenchmarkTraceMemoReplay drains porky's 2M-instruction stream through a
// memo cursor, beside the same records in a trace.SliceReader for scale.
func BenchmarkTraceMemoReplay(b *testing.B) {
	bench := synth.MustBuild(synth.Porky())
	const insts = 2_000_000
	s := &sharedTrace{key: traceKey{b: bench, seed: defaultStreamSeed, insts: insts}, cache: new(cellCache)}
	recs, err := trace.Collect(trace.NewLimitReader(bench.NewWalker(defaultStreamSeed), traceLimit(insts)))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		rd   func() trace.Reader
	}{
		{"memo", s.reader},
		{"slice", func() trace.Reader { return trace.NewSliceReader(recs) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			c.rd()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd := c.rd()
				for _, err := rd.Next(); err == nil; _, err = rd.Next() {
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
		})
	}
}
