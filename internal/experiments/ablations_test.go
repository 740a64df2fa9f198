package experiments

import (
	"strings"
	"testing"
)

func TestAblationPrefetch(t *testing.T) {
	tab, err := AblationPrefetch(quick())
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, want := range []string{"none", "next-line", "target", "combined", "stream-4"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing scheme %q", want)
		}
	}
}

func TestAblationBTBCoupling(t *testing.T) {
	tab, err := AblationBTBCoupling(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "Decoupled") {
		t.Error("missing decoupled column")
	}
}

func TestAblationAssociativity(t *testing.T) {
	tab, err := AblationAssociativity(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "4-way") {
		t.Error("missing 4-way column")
	}
}

func TestAblationFetchWidth(t *testing.T) {
	tab, err := AblationFetchWidth(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "8-wide") {
		t.Error("missing 8-wide column")
	}
}

func TestAblationPipelinedMemory(t *testing.T) {
	tab, err := AblationPipelinedMemory(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "Resume+pipe") {
		t.Error("missing pipelined column")
	}
}

// TestAblationsRegistry: the catalogue lists every ablation, by name, in
// sorted order, after the other artifacts.
func TestAblationsRegistry(t *testing.T) {
	want := []string{"assoc", "btb", "ctxswitch", "l2", "layout", "mshr",
		"pipelined-mem", "prefetch", "ras", "victim", "width"}
	var got []string
	for _, a := range Catalogue() {
		if name, ok := strings.CutPrefix(a.Name, "ablation "); ok {
			got = append(got, name)
			if a.Heading != "Ablation — "+name || a.Paper {
				t.Errorf("%s: heading %q, paper %v", a.Name, a.Heading, a.Paper)
			}
		} else if got != nil {
			t.Errorf("%s listed after the ablations", a.Name)
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("catalogue ablations %v, want %v", got, want)
	}
}

func TestAblationRAS(t *testing.T) {
	tab, err := AblationRAS(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "RAS-8") {
		t.Error("missing RAS-8 column")
	}
}

func TestAblationVictimCache(t *testing.T) {
	tab, err := AblationVictimCache(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "16 lines") {
		t.Error("missing 16-line column")
	}
}

func TestAblationMSHR(t *testing.T) {
	tab, err := AblationMSHR(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "4 MSHR") {
		t.Error("missing MSHR column")
	}
}

func TestAblationCodeLayout(t *testing.T) {
	tab, err := AblationCodeLayout(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "reordered") {
		t.Error("missing reordered column")
	}
}

func TestAblationL2(t *testing.T) {
	tab, err := AblationL2(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "L2 hit%") {
		t.Error("missing L2 hit column")
	}
}

func TestAblationContextSwitch(t *testing.T) {
	tab, err := AblationContextSwitch(quick())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tab.String(), "Res 20k") {
		t.Error("missing 20k column")
	}
}
