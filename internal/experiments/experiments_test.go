package experiments

import (
	"strings"
	"sync/atomic"
	"testing"

	"specfetch/internal/core"
	"specfetch/internal/metrics"
	"specfetch/internal/obs"
	"specfetch/internal/synth"
	"specfetch/internal/trace"
)

// quick gives every experiment a fast test configuration.
func quick() Options { return QuickOptions() }

func TestSelectedValidation(t *testing.T) {
	if _, err := selected(Options{Benchmarks: []string{"nosuch"}}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	profs, err := selected(Options{Benchmarks: []string{"groff", "gcc"}})
	if err != nil {
		t.Fatal(err)
	}
	// Paper order preserved regardless of request order.
	if len(profs) != 2 || profs[0].Name != "gcc" || profs[1].Name != "groff" {
		t.Errorf("selection = %v", profs)
	}
	all, err := selected(Options{})
	if err != nil || len(all) != 13 {
		t.Fatalf("all = %d, %v", len(all), err)
	}
}

func TestTable2(t *testing.T) {
	tab, err := Table2(quick())
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"doduc", "gcc", "groff", "Fortran", "C++"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	rows, err := Table3Data(quick())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.Miss8K < r.Miss32K {
			t.Errorf("%s: 8K miss %.2f below 32K miss %.2f", r.Name, r.Miss8K, r.Miss32K)
		}
		if r.Miss8K <= 0 {
			t.Errorf("%s: no 8K misses", r.Name)
		}
	}
	// Fortran predicts far better than C/C++ (paper's core Table 3 shape).
	if byName["doduc"].PHTISPIB4 >= byName["gcc"].PHTISPIB4 {
		t.Errorf("doduc PHT ISPI %.2f not below gcc %.2f",
			byName["doduc"].PHTISPIB4, byName["gcc"].PHTISPIB4)
	}
	if tab, err := Table3(quick()); err != nil || !strings.Contains(tab.String(), "Average") {
		t.Errorf("Table3 render: %v", err)
	}
}

func TestTable4Shapes(t *testing.T) {
	rows, err := Table4Data(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.TrafficRatio <= 1.0 {
			t.Errorf("%s: traffic ratio %.2f not above 1", r.Bench, r.TrafficRatio)
		}
		if r.BothMiss <= 0 {
			t.Errorf("%s: no common misses", r.Bench)
		}
		// Prefetch effect dominates pollution for the C/C++ stand-ins.
		if r.Bench != "doduc" && r.SpecPrefetch <= r.SpecPollute {
			t.Errorf("%s: SPr %.2f not above SPo %.2f", r.Bench, r.SpecPrefetch, r.SpecPollute)
		}
	}
	if tab, err := Table4(quick()); err != nil || !strings.Contains(tab.String(), "TR") {
		t.Errorf("Table4 render: %v", err)
	}
}

// TestTable4CountsSimulations: Table 4's Oracle and Optimistic runs are
// sweep cells like any other, so they reach the campaign counters and the
// progress sink, two per bench.
func TestTable4CountsSimulations(t *testing.T) {
	opt := Options{Insts: 20_000, Benchmarks: []string{"gcc", "groff"}, Metrics: obs.NewRegistry()}
	var lines atomic.Int64
	opt.Progress = func(string) { lines.Add(1) }
	if _, err := Table4Data(opt); err != nil {
		t.Fatal(err)
	}
	const want = 2 * 2
	if got := opt.Metrics.Counter("specfetch_simulations_total", "").Value(); got != want {
		t.Errorf("specfetch_simulations_total = %d, want %d", got, want)
	}
	if got := lines.Load(); got != want {
		t.Errorf("progress lines = %d, want %d", got, want)
	}
}

func TestTable5Shapes(t *testing.T) {
	rows, err := Table5Data(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Deeper speculation reduces ISPI for every policy (paper §5.2.2).
		for _, pol := range core.Policies() {
			if r.ISPI[1][pol] <= r.ISPI[4][pol] {
				t.Errorf("%s/%s: depth-1 ISPI %.3f not above depth-4 %.3f",
					r.Bench, pol, r.ISPI[1][pol], r.ISPI[4][pol])
			}
		}
		// Baseline policy ordering at depth 4: Resume <= Optimistic,
		// Optimistic < Pessimistic.
		d4 := r.ISPI[4]
		if d4[core.Resume] > d4[core.Optimistic] {
			t.Errorf("%s: Resume %.3f above Optimistic %.3f", r.Bench,
				d4[core.Resume], d4[core.Optimistic])
		}
		if d4[core.Optimistic] >= d4[core.Pessimistic] {
			t.Errorf("%s: Optimistic %.3f not below Pessimistic %.3f at small latency",
				r.Bench, d4[core.Optimistic], d4[core.Pessimistic])
		}
	}
	if tab, err := Table5(quick()); err != nil || !strings.Contains(tab.String(), "B4") {
		t.Errorf("Table5 render: %v", err)
	}
}

func TestTable6Shapes(t *testing.T) {
	rows6, err := Table6Data(quick())
	if err != nil {
		t.Fatal(err)
	}
	rows5, err := Table5Data(quick())
	if err != nil {
		t.Fatal(err)
	}
	small := map[string]map[core.Policy]float64{}
	for _, r := range rows5 {
		small[r.Bench] = r.ISPI[4]
	}
	for _, r := range rows6 {
		// A 32K cache cannot be slower than 8K, and the policy spread
		// shrinks (paper §5.2.3).
		for _, pol := range core.Policies() {
			if r.ISPI[pol] > small[r.Bench][pol] {
				t.Errorf("%s/%s: 32K ISPI %.3f above 8K %.3f",
					r.Bench, pol, r.ISPI[pol], small[r.Bench][pol])
			}
		}
		spread32 := r.ISPI[core.Pessimistic] - r.ISPI[core.Resume]
		spread8 := small[r.Bench][core.Pessimistic] - small[r.Bench][core.Resume]
		if spread32 > spread8 {
			t.Errorf("%s: policy spread grew with cache size (%.3f vs %.3f)",
				r.Bench, spread32, spread8)
		}
	}
	if tab, err := Table6(quick()); err != nil || !strings.Contains(tab.String(), "Oracle") {
		t.Errorf("Table6 render: %v", err)
	}
}

func TestTable7Shapes(t *testing.T) {
	rows, err := Table7Data(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Prefetching always adds traffic; Resume adds the most (wrong-path
		// fills plus prefetches).
		for _, pol := range Table7Policies {
			if r.Ratio[pol] <= 1.0 {
				t.Errorf("%s/%s: traffic ratio %.2f not above 1", r.Bench, pol, r.Ratio[pol])
			}
		}
		if r.Ratio[core.Resume] < r.Ratio[core.Oracle] {
			t.Errorf("%s: Resume ratio %.2f below Oracle %.2f",
				r.Bench, r.Ratio[core.Resume], r.Ratio[core.Oracle])
		}
	}
	if tab, err := Table7(quick()); err != nil || !strings.Contains(tab.String(), "Res") {
		t.Errorf("Table7 render: %v", err)
	}
}

func TestFigures(t *testing.T) {
	opt := quick()
	opt.Benchmarks = []string{"gcc"}

	bars, err := FigureData(opt, 5, core.Policies(), []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	if len(bars) != len(core.Policies()) {
		t.Fatalf("bars = %d", len(bars))
	}
	for _, b := range bars {
		sum := 0.0
		for _, c := range metrics.Components() {
			sum += b.Components[c]
		}
		if diff := sum - b.Total; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s/%s: components sum %.6f != total %.6f", b.Bench, b.Policy, sum, b.Total)
		}
	}

	for i, fn := range []func(Options) (interface{ String() string }, error){
		func(o Options) (interface{ String() string }, error) { return Figure1(o) },
		func(o Options) (interface{ String() string }, error) { return Figure2(o) },
		func(o Options) (interface{ String() string }, error) { return Figure3(o) },
		func(o Options) (interface{ String() string }, error) { return Figure4(o) },
	} {
		fig, err := fn(opt)
		if err != nil {
			t.Fatalf("figure %d: %v", i+1, err)
		}
		if !strings.Contains(fig.String(), "gcc") {
			t.Errorf("figure %d missing benchmark", i+1)
		}
	}
}

// TestLongLatencyShape: at a 20-cycle penalty the conservative policies
// overtake Optimistic (the paper's §5.2.1 crossover).
func TestLongLatencyShape(t *testing.T) {
	opt := Options{Insts: 400_000, Benchmarks: []string{"groff"}}
	bars, err := FigureData(opt, 20, core.Policies(), []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	ispi := map[core.Policy]float64{}
	for _, b := range bars {
		ispi[b.Policy] = b.Total
	}
	if ispi[core.Pessimistic] >= ispi[core.Optimistic] {
		t.Errorf("at 20 cycles Pessimistic %.3f not below Optimistic %.3f",
			ispi[core.Pessimistic], ispi[core.Optimistic])
	}
}

// TestCharacterize: one benchmark's Table 3 row carries its name, its
// measured statistics and the paper's.
func TestCharacterize(t *testing.T) {
	rows, err := Table3Data(Options{Insts: 100_000, Benchmarks: []string{"li"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	c := rows[0]
	if c.Name != "li" || c.Lang != synth.C || c.Miss8K <= 0 || c.Miss32K <= 0 || c.PHTISPIB4 <= 0 ||
		c.Paper != synth.PaperTargets["li"] {
		t.Errorf("characterization: %+v", c)
	}
}

func TestSeedSensitivity(t *testing.T) {
	opt := Options{Insts: 100_000, Benchmarks: []string{"li"}}
	rows, err := SeedSensitivityData(opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	for pol, st := range rows[0].Stats {
		if st.N != 3 || st.Mean <= 0 {
			t.Errorf("%s: stats %+v", pol, st)
		}
		if st.Min > st.Mean || st.Max < st.Mean {
			t.Errorf("%s: min/mean/max inconsistent: %+v", pol, st)
		}
		// Seed noise should be a small fraction of the mean on a 100k run.
		if st.StdDev > 0.35*st.Mean {
			t.Errorf("%s: seed noise %.3f too large vs mean %.3f", pol, st.StdDev, st.Mean)
		}
	}
	tab, err := SeedSensitivity(opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "±") {
		t.Error("table missing ± column")
	}
	if _, err := SeedSensitivityData(opt, 1); err == nil {
		t.Error("accepted a single seed")
	}
}

func TestLatencySweepCrossover(t *testing.T) {
	opt := Options{Insts: 250_000, Benchmarks: []string{"groff"}}
	rows, err := LatencySweepData(opt, []int{3, 20, 40})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if len(r.Points) != 3 {
		t.Fatalf("points = %d", len(r.Points))
	}
	// At 3 cycles the aggressive policy wins; by 20-40 the conservative one
	// does, so a crossover must be recorded in (3, 40].
	first := r.Points[0]
	if first.ISPI[core.Optimistic] >= first.ISPI[core.Pessimistic] {
		t.Errorf("at 3 cycles Optimistic %.3f not below Pessimistic %.3f",
			first.ISPI[core.Optimistic], first.ISPI[core.Pessimistic])
	}
	if r.Crossover <= 3 {
		t.Errorf("crossover = %d, want in (3,40]", r.Crossover)
	}
	tab, err := LatencySweep(opt, []int{3, 20})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "crossover") {
		t.Error("table missing crossover column")
	}
}

// spearman computes the Spearman rank correlation between two equal-length
// samples (no tie correction; our samples have no exact ties).
func spearman(a, b []float64) float64 {
	rank := func(xs []float64) []float64 {
		n := len(xs)
		r := make([]float64, n)
		for i := 0; i < n; i++ {
			cnt := 0.0
			for j := 0; j < n; j++ {
				if xs[j] < xs[i] {
					cnt++
				}
			}
			r[i] = cnt
		}
		return r
	}
	ra, rb := rank(a), rank(b)
	n := float64(len(a))
	var d2 float64
	for i := range ra {
		d := ra[i] - rb[i]
		d2 += d * d
	}
	return 1 - 6*d2/(n*(n*n-1))
}

// TestMissRateRankCorrelation turns EXPERIMENTS.md's claim into an
// assertion: the synthetic suite's 8K miss-rate ordering must track the
// paper's Table 3 ordering strongly.
func TestMissRateRankCorrelation(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite characterization")
	}
	rows, err := Table3Data(Options{Insts: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	var ours, paper []float64
	for _, r := range rows {
		ours = append(ours, r.Miss8K)
		paper = append(paper, r.Paper.Miss8K)
	}
	if rho := spearman(ours, paper); rho < 0.75 {
		t.Errorf("8K miss-rate rank correlation %.3f below 0.75", rho)
	}
	// And the branch fractions Table 2 scans correlate too.
	ours, paper = nil, nil
	benches, err := buildAll(Options{Insts: 400_000})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benches {
		st, err := trace.Scan(b.NewReader(defaultStreamSeed, 400_000))
		if err != nil {
			t.Fatal(err)
		}
		ours = append(ours, 100*st.BranchFrac())
		paper = append(paper, synth.PaperTargets[b.Profile().Name].BranchPct)
	}
	if rho := spearman(ours, paper); rho < 0.85 {
		t.Errorf("branch%% rank correlation %.3f below 0.85", rho)
	}
}

func TestModernStudy(t *testing.T) {
	tab, err := ModernStudy(Options{Insts: 150_000})
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"web", "db", "search", "verdict"} {
		if !strings.Contains(out, want) {
			t.Errorf("modern study missing %q", want)
		}
	}
}

// TestTableRenderingDeterministic guards the map-iteration-order fixes in
// the table builders (Table5Data/Table6Data/LatencySweepData collect
// per-policy results from a map): building and rendering the same table
// twice must be byte-identical.
func TestTableRenderingDeterministic(t *testing.T) {
	opt := quick()
	opt.Benchmarks = []string{"gcc", "groff"}
	first, err := Table5(opt)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Table5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Error("Table 5 renders differently across identical builds")
	}
}
