package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// TestAblationsTable4GoldenPinned pins the rendered bytes of every ablation
// and of Table 4, the builders that share their executor with the rest of
// the sweep only through runCells. Regenerate with -update only for a
// change that is meant to alter these outputs.
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
	sb.WriteString(tab4.String())
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
		t.Errorf("ablation + Table 4 bytes differ from the pinned golden\ngot:\n%s\nwant:\n%s", got, want)
	}
}
