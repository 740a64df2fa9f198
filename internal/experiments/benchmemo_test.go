package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/program"
	"specfetch/internal/synth"
)

// TestBenchMemoShared: every buildAll call and every JobRunner in the
// process get the same *synth.Bench for a profile, including when two
// goroutines build the same profiles at once on 4-worker pools.
func TestBenchMemoShared(t *testing.T) {
	opt := Options{Benchmarks: []string{"doduc", "gcc", "groff"}, Workers: 4}
	first, err := buildAll(opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := buildAll(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Errorf("%s: two buildAll calls returned different benches", first[i].Profile().Name)
		}
	}

	gcc := first[1]
	r := NewJobRunner(nil)
	if _, err := r.Run(jobSpec(t, gcc.Profile(), defaultStreamSeed, 1_000, baseConfig(core.Resume))); err != nil {
		t.Fatal(err)
	}
	if got := r.cache.last.key.b; got != gcc {
		t.Error("a JobRunner ran gcc on another bench than buildAll returns")
	}

	// Every profile, built from two goroutines at once: the memo entries
	// no earlier test created are built concurrently here.
	all := Options{Workers: 4}
	var wg sync.WaitGroup
	got := make([][]*synth.Bench, 2)
	errs := make([]error, 2)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = buildAll(all)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for i := range got[0] {
		if got[0][i] != got[1][i] {
			t.Errorf("%s: concurrent buildAll calls returned different benches", got[0][i].Profile().Name)
		}
	}
	for _, b := range first {
		if i := indexOfProfile(got[0], b.Profile()); i < 0 || got[0][i] != b {
			t.Errorf("%s: buildAll of every profile did not return the memoized bench", b.Profile().Name)
		}
	}
}

// indexOfProfile returns the index of the bench built from p, or -1.
func indexOfProfile(benches []*synth.Bench, p synth.Profile) int {
	for i, b := range benches {
		if b.Profile() == p {
			return i
		}
	}
	return -1
}

// TestBenchMemoKeyedByWholeProfile: a profile that shares gcc's name but
// not its generator gets its own bench, and concurrent first requests for
// it all get that one bench.
func TestBenchMemoKeyedByWholeProfile(t *testing.T) {
	gcc := synth.GCC()
	variant := gcc
	variant.NumFuncs += 11
	const callers = 4
	got := make([]*synth.Bench, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = benchFor(variant)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != got[0] {
			t.Errorf("caller %d got another bench for the same profile", i)
		}
	}
	b, err := benchFor(gcc)
	if err != nil {
		t.Fatal(err)
	}
	if b == got[0] || b.Image().NumInsts() == got[0].Image().NumInsts() {
		t.Error("two profiles that share a name share a bench")
	}
}

// TestModernStudyUsesBenchMemo: the modern-footprint study takes its
// web, db and search benches from the memo, like every other builder, so
// after it runs each modern profile has a built memo entry.
func TestModernStudyUsesBenchMemo(t *testing.T) {
	if _, err := ModernStudy(Options{Insts: 2_000, Workers: 2}); err != nil {
		t.Fatal(err)
	}
	benchMemo.mu.Lock()
	defer benchMemo.mu.Unlock()
	for _, p := range synth.ModernProfiles() {
		if e := benchMemo.m[p]; e == nil || e.bench == nil {
			t.Errorf("%s: the study ran without a memoized bench", p.Name)
		}
	}
}

// TestBenchMemoUnmutatedByBuilders: after every table and figure builder
// has run at QuickOptions on the shared benches, each memoized bench of a
// paper profile still writes the image TestImageGolden pins, so no
// builder mutates a bench it shares with the rest of the process.
func TestBenchMemoUnmutatedByBuilders(t *testing.T) {
	if raceEnabled {
		t.Skip("every builder at QuickOptions; the memo's concurrency is covered by TestBenchMemoShared")
	}
	want := imageGoldenDigests(t)
	opt := quick()
	for _, a := range Catalogue() {
		if !a.Paper {
			continue
		}
		if _, err := a.Build(opt); err != nil {
			t.Fatal(err)
		}
	}
	benchMemo.mu.Lock()
	var built []synth.Profile
	for _, p := range synth.Profiles() {
		if benchMemo.m[p] != nil {
			built = append(built, p)
		}
	}
	benchMemo.mu.Unlock()
	for _, p := range built {
		b, err := benchFor(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		h := sha256.New()
		if err := program.WriteImage(h, b.Image()); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[p.Name] {
			t.Errorf("%s: memoized image digest %s, TestImageGolden pins %s", p.Name, got, want[p.Name])
		}
	}
	if len(built) < len(opt.Benchmarks) {
		t.Errorf("checked %d memoized benches, want at least the %d the builders ran", len(built), len(opt.Benchmarks))
	}
}

// imageGoldenDigests reads the image digest of every bench synth's
// TestImageGolden pins, keyed by bench name.
func imageGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "synth", "testdata", "images.golden"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		for _, fl := range fields[1:] {
			if d, ok := strings.CutPrefix(fl, "image="); ok {
				out[fields[0]] = d
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestBenchMemoWarmAllocs: once the selected benches are built, another
// buildAll allocates less than a hundredth of what building them does.
func TestBenchMemoWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	opt := Options{Benchmarks: []string{"doduc", "gcc", "groff"}, Workers: 1}
	profs, err := selected(opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := buildAll(opt); err != nil {
		t.Fatal(err)
	}
	warm := allocated(func() {
		if _, err := buildAll(opt); err != nil {
			t.Fatal(err)
		}
	})
	cold := allocated(func() {
		for _, p := range profs {
			if _, err := synth.Build(p); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("a warm buildAll allocated %d bytes; building the benches allocates %d", warm, cold)
	if warm*100 >= cold {
		t.Errorf("a warm buildAll allocated %d bytes, want less than 1%% of the %d a build allocates", warm, cold)
	}
}
