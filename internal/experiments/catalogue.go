package experiments

import (
	"io"

	"specfetch/internal/texttable"
)

// Renderer is a built artifact: a table or a figure, as aligned text or
// as CSV.
type Renderer interface {
	Render(w io.Writer) error
	RenderCSV(w io.Writer) error
}

// Artifact is one fixed-parameter artifact of the reproduction: a paper
// table or figure, the latency sweep, the modern study or an ablation.
type Artifact struct {
	// Name selects the artifact and labels it in paperbench's stderr summary,
	// for example "table 5", "latency sweep" or "ablation btb".
	Name string
	// Heading titles the artifact's section of the Markdown report.
	Heading string
	// Paper marks the paper's own Tables 2-7 and Figures 1-4, the set
	// paperbench -all renders.
	Paper bool
	// Build runs the artifact's sweep and returns its rendering.
	Build func(Options) (Renderer, error)
}

// artifact adapts a typed builder to an Artifact.
func artifact[R Renderer](name, heading string, paper bool, build func(Options) (R, error)) Artifact {
	return Artifact{name, heading, paper, func(o Options) (Renderer, error) { return build(o) }}
}

// Catalogue lists every fixed-parameter artifact in report order: the
// paper's tables and figures, the latency sweep, the modern study, then
// the ablations sorted by name. The studies that take parameters (seed
// sensitivity, the oracle selector, the adaptive study) are not in it.
func Catalogue() []Artifact {
	cat := []Artifact{
		artifact("table 2", "Table 2 — benchmark inventory", true, Table2),
		artifact("table 3", "Table 3 — cache and branch characteristics", true, Table3),
		artifact("table 4", "Table 4 — miss classification", true, Table4),
		artifact("table 5", "Table 5 — speculation depth", true, Table5),
		artifact("table 6", "Table 6 — cache size", true, Table6),
		artifact("table 7", "Table 7 — prefetch memory traffic", true, Table7),
		artifact("figure 1", "Figure 1 — baseline penalty breakdown", true, Figure1),
		artifact("figure 2", "Figure 2 — long miss latency", true, Figure2),
		artifact("figure 3", "Figure 3 — next-line prefetching", true, Figure3),
		artifact("figure 4", "Figure 4 — prefetching at long latency", true, Figure4),
		{"latency sweep", "Latency sweep and crossover", false,
			func(o Options) (Renderer, error) { return LatencySweep(o, nil) }},
		artifact("modern study", "Modern-footprint study", false, ModernStudy),
	}
	for _, a := range []struct {
		name  string
		build func(Options) (*texttable.Table, error)
	}{
		{"assoc", AblationAssociativity},
		{"btb", AblationBTBCoupling},
		{"ctxswitch", AblationContextSwitch},
		{"l2", AblationL2},
		{"layout", AblationCodeLayout},
		{"mshr", AblationMSHR},
		{"pipelined-mem", AblationPipelinedMemory},
		{"prefetch", AblationPrefetch},
		{"ras", AblationRAS},
		{"victim", AblationVictimCache},
		{"width", AblationFetchWidth},
	} {
		cat = append(cat, artifact("ablation "+a.name, "Ablation — "+a.name, false, a.build))
	}
	return cat
}
