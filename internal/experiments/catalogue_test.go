package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCatalogue pins the one list of fixed artifacts: unique names, the
// paper's Tables 2-7 then Figures 1-4 as its paper set, and the headings,
// in order, that the checked-in results/report.md carries.
func TestCatalogue(t *testing.T) {
	var wantPaper []string
	for n := 2; n <= 7; n++ {
		wantPaper = append(wantPaper, fmt.Sprintf("table %d", n))
	}
	for n := 1; n <= 4; n++ {
		wantPaper = append(wantPaper, fmt.Sprintf("figure %d", n))
	}
	seen := map[string]bool{}
	var paper, headings []string
	for _, a := range Catalogue() {
		if seen[a.Name] {
			t.Errorf("name %q listed twice", a.Name)
		}
		seen[a.Name] = true
		if a.Paper {
			paper = append(paper, a.Name)
		}
		if a.Build == nil {
			t.Errorf("%s has no builder", a.Name)
		}
		headings = append(headings, a.Heading)
	}
	if strings.Join(paper, ", ") != strings.Join(wantPaper, ", ") {
		t.Errorf("paper set %v, want %v", paper, wantPaper)
	}

	report, err := os.ReadFile(filepath.Join("..", "..", "results", "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(report), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			want = append(want, h)
		}
	}
	if strings.Join(headings, "\n") != strings.Join(want, "\n") {
		t.Errorf("headings:\n%s\nwant the report's:\n%s", strings.Join(headings, "\n"), strings.Join(want, "\n"))
	}
}
