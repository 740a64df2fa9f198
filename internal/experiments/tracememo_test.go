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
				s := &sharedTrace{b: b, key: traceKey{bench: p.Name, seed: seed, insts: insts}}
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
	s := &sharedTrace{b: b, key: traceKey{bench: "groff", seed: defaultStreamSeed, insts: insts}}
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
// form, including a mid-stream fault and an invalid record (replayed without
// the vouching), and any record that cannot be rebuilt exactly keeps the
// whole stream out of the memo.
func TestTraceMemoPacking(t *testing.T) {
	t.Parallel()
	const base = isa.Addr(0x10000)
	ok := []trace.Record{
		{Start: base, N: 3, BrKind: isa.CondBranch, Taken: true, Target: base.Plus(40)},
		{Start: base.Plus(40), N: 64, BrKind: isa.Plain},
		{Start: base.Plus(104), N: 2, BrKind: isa.CondBranch},
		{Start: base.Plus(106), N: 65535, BrKind: isa.Call, Taken: true, Target: base.Plus(1<<32 - 1)},
		{Start: base.Plus(1<<32 - 1), N: 1, BrKind: isa.Return, Taken: true, Target: base},
	}
	fault := errors.New("walker fault")
	invalid := append(append([]trace.Record(nil), ok...),
		trace.Record{Start: base, N: 0, BrKind: isa.Plain})

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
		s := packStream(&errReader{recs: tc.recs, err: tc.err}, base)
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
		{"N=70000", trace.Record{Start: base.Plus(1), N: 70000, BrKind: isa.Plain}},
		{"negative N", trace.Record{Start: base.Plus(1), N: -1, BrKind: isa.Plain}},
		{"target below base", trace.Record{Start: base.Plus(1), N: 1, BrKind: isa.Jump, Taken: true, Target: base - isa.InstBytes}},
		{"target past 2^32 words", trace.Record{Start: base.Plus(1), N: 1, BrKind: isa.Jump, Taken: true, Target: base.Plus(1 << 32)}},
		{"misaligned target", trace.Record{Start: base.Plus(1), N: 1, BrKind: isa.Jump, Taken: true, Target: base + 2}},
		{"not-taken target", trace.Record{Start: base.Plus(1), N: 1, BrKind: isa.CondBranch, Target: base}},
		{"discontinuous start", trace.Record{Start: base.Plus(2), N: 1, BrKind: isa.Plain}},
	} {
		recs := []trace.Record{{Start: base, N: 1, BrKind: isa.Plain}, tc.bad, {Start: tc.bad.NextPC(), N: 1}}
		if s := packStream(&errReader{recs: recs, err: io.EOF}, base); s != nil {
			t.Errorf("%s: stream with %+v was memoized", tc.name, tc.bad)
		}
	}
}

// TestTraceMemoAllocs guards the memo's footprint: generating the gcc
// stream at 400k instructions allocates about 8 bytes per record plus at
// most one partly filled chunk. Storing whole trace.Records in a growing
// slice cost about 64 bytes per record.
func TestTraceMemoAllocs(t *testing.T) {
	b := synth.MustBuild(synth.GCC())
	s := &sharedTrace{b: b, key: traceKey{bench: "gcc", seed: defaultStreamSeed, insts: 400_000}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rd := s.reader()
	runtime.ReadMemStats(&after)
	if rd == nil {
		t.Fatal("gcc stream was not memoized")
	}
	recs := s.stream.n
	alloc := after.TotalAlloc - before.TotalAlloc
	const chunkBytes = chunkRecs * 8
	limit := uint64(9*recs + chunkBytes)
	t.Logf("%d records, %d bytes allocated (%.2f B/record), limit %d", recs, alloc, float64(alloc)/float64(recs), limit)
	if alloc > limit {
		t.Errorf("generating %d records allocated %d bytes, want at most %d (9 B/record plus one chunk)", recs, alloc, limit)
	}
}

// BenchmarkTraceMemoReplay drains porky's 2M-instruction stream through a
// memo cursor, beside the same records in a trace.SliceReader for scale.
func BenchmarkTraceMemoReplay(b *testing.B) {
	bench := synth.MustBuild(synth.Porky())
	const insts = 2_000_000
	s := &sharedTrace{b: bench, key: traceKey{bench: "porky", seed: defaultStreamSeed, insts: insts}}
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
