package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specfetch/internal/texttable"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTable6Figure1GoldenPinned pins the rendered bytes of Table 6 and
// Figure 1 to a golden captured before the typed Cycles/Slots split, proving
// the unit refactor (and any later change) is behavior-neutral down to the
// byte. The differential tests in shard_test.go prove worker-count
// invariance within one build; this one proves invariance across builds.
// Regenerate with -update only for a change that is *meant* to alter the
// paper outputs.
func TestTable6Figure1GoldenPinned(t *testing.T) {
	opt := Options{Insts: 50_000, Benchmarks: []string{"gcc", "groff"}, Workers: 1}
	tab, err := Table6(opt)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := Figure1(opt)
	if err != nil {
		t.Fatal(err)
	}
	got := tab.String() + "\n" + fig.String()

	golden := filepath.Join("testdata", "table6_figure1.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("Table 6 + Figure 1 bytes differ from the pinned pre-refactor golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestAblationsTable4GoldenPinned pins the rendered bytes of every ablation,
// of Table 4 and of the seed-sensitivity table, the builders that share
// their executor with the rest of the sweep only through runCells.
// Regenerate with -update only for a change that is meant to alter these
// outputs.
func TestAblationsTable4GoldenPinned(t *testing.T) {
	opt := Options{Insts: 30_000, Benchmarks: []string{"doduc", "gcc", "groff"}, Workers: 1}
	var sb strings.Builder
	for _, name := range AblationNames() {
		tab, err := Ablations()[name](opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sb.WriteString(tab.String() + "\n")
	}
	tab4, err := Table4(opt)
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(tab4.String() + "\n")
	sens, err := SeedSensitivity(opt, 3)
	if err != nil {
		t.Fatal(err)
	}
	sb.WriteString(sens.String())
	got := sb.String()

	golden := filepath.Join("testdata", "ablations_table4.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("ablation + Table 4 + seed sensitivity bytes differ from the pinned golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestOracleAdaptiveGoldenPinned pins the rendered bytes of the oracle
// selector and of the adaptive study (its crossover table, its oracle arm
// and the winner map) in two settings: the defaults (interval 0, no
// penalties named) and phase:6 at 2,500-instruction windows under
// 15,000-instruction flushes; at 160k instructions the second setting
// outlasts the chooser's 48-window warm-up, so it switches in every cell.
// The identity suites compare worker counts
// and step modes within one build; this golden holds the study's bytes
// across builds, including how the default window and penalties resolve.
// Regenerate with -update only for a change that is meant to alter these
// outputs.
func TestOracleAdaptiveGoldenPinned(t *testing.T) {
	settings := []struct {
		name     string
		flush    int64
		interval int64
	}{
		{"defaults", 0, 0},
		{"phase:6 window 2500 flush 15000", 15_000, 2_500},
	}
	var sb strings.Builder
	for _, s := range settings {
		opt := Options{Insts: 160_000, Benchmarks: []string{"gcc", "groff"}, Workers: 1, FlushInterval: s.flush}
		oracle, err := OracleSelectorData(opt, s.interval, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		study, err := AdaptiveStudyData(opt, "phase:6", 0, s.interval, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		fmt.Fprintf(&sb, "== %s\n", s.name)
		for _, tab := range []*texttable.Table{oracle.CrossoverTable(), study.CrossoverTable(), study.Oracle.CrossoverTable()} {
			sb.WriteString(tab.String() + "\n")
		}
		sb.WriteString(oracle.WinnerMap() + "\n" + study.WinnerMap() + "\n")
	}
	got := strings.TrimSuffix(sb.String(), "\n")

	golden := filepath.Join("testdata", "oracle_adaptive.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("oracle + adaptive study bytes differ from the pinned golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
