package synth

// PaperStats records what the paper measured for a benchmark (Tables 2/3),
// which Tables 2 and 3 and EXPERIMENTS.md print beside our synthetic
// stand-ins' values.
type PaperStats struct {
	// BranchPct is Table 2's "% Branches" (dynamic branches per instruction).
	BranchPct float64
	// Miss8K / Miss32K are Table 3's direct-mapped miss percentages.
	Miss8K, Miss32K float64
	// PHTISPIB1 / PHTISPIB4 are Table 3's PHT mispredict ISPI at speculation
	// depth 1 and 4.
	PHTISPIB1, PHTISPIB4 float64
	// BTBMisfetchISPI / BTBMispredictISPI are Table 3's B4 columns.
	BTBMisfetchISPI, BTBMispredictISPI float64
	// InstsMillions is Table 2's dynamic instruction count, in millions.
	InstsMillions float64
}

// PaperTargets maps benchmark name to the paper's measured characteristics.
var PaperTargets = map[string]PaperStats{
	"doduc":   {BranchPct: 8.5, Miss8K: 2.94, Miss32K: 0.48, PHTISPIB1: 0.22, PHTISPIB4: 0.37, BTBMisfetchISPI: 0.04, BTBMispredictISPI: 0.00, InstsMillions: 1150},
	"fpppp":   {BranchPct: 2.8, Miss8K: 7.27, Miss32K: 1.08, PHTISPIB1: 0.08, PHTISPIB4: 0.12, BTBMisfetchISPI: 0.01, BTBMispredictISPI: 0.00, InstsMillions: 4330},
	"su2cor":  {BranchPct: 4.4, Miss8K: 1.33, Miss32K: 0.00, PHTISPIB1: 0.08, PHTISPIB4: 0.10, BTBMisfetchISPI: 0.00, BTBMispredictISPI: 0.00, InstsMillions: 4780},
	"ditroff": {BranchPct: 17.5, Miss8K: 3.18, Miss32K: 0.58, PHTISPIB1: 0.44, PHTISPIB4: 0.64, BTBMisfetchISPI: 0.22, BTBMispredictISPI: 0.00, InstsMillions: 39},
	"gcc":     {BranchPct: 16.0, Miss8K: 4.48, Miss32K: 1.71, PHTISPIB1: 0.53, PHTISPIB4: 0.63, BTBMisfetchISPI: 0.28, BTBMispredictISPI: 0.05, InstsMillions: 144},
	"li":      {BranchPct: 17.7, Miss8K: 3.33, Miss32K: 0.06, PHTISPIB1: 0.35, PHTISPIB4: 0.54, BTBMisfetchISPI: 0.24, BTBMispredictISPI: 0.04, InstsMillions: 1360},
	"tex":     {BranchPct: 10.0, Miss8K: 2.85, Miss32K: 1.00, PHTISPIB1: 0.27, PHTISPIB4: 0.36, BTBMisfetchISPI: 0.11, BTBMispredictISPI: 0.03, InstsMillions: 148},
	"cfront":  {BranchPct: 13.4, Miss8K: 7.24, Miss32K: 2.63, PHTISPIB1: 0.50, PHTISPIB4: 0.56, BTBMisfetchISPI: 0.34, BTBMispredictISPI: 0.05, InstsMillions: 16.5},
	"db++":    {BranchPct: 17.6, Miss8K: 1.57, Miss32K: 0.42, PHTISPIB1: 0.16, PHTISPIB4: 0.41, BTBMisfetchISPI: 0.13, BTBMispredictISPI: 0.01, InstsMillions: 87},
	"groff":   {BranchPct: 17.5, Miss8K: 5.33, Miss32K: 1.68, PHTISPIB1: 0.42, PHTISPIB4: 0.57, BTBMisfetchISPI: 0.38, BTBMispredictISPI: 0.06, InstsMillions: 57},
	"idl":     {BranchPct: 19.6, Miss8K: 2.17, Miss32K: 0.67, PHTISPIB1: 0.30, PHTISPIB4: 0.49, BTBMisfetchISPI: 0.10, BTBMispredictISPI: 0.04, InstsMillions: 21.1},
	"lic":     {BranchPct: 16.5, Miss8K: 3.93, Miss32K: 1.68, PHTISPIB1: 0.45, PHTISPIB4: 0.56, BTBMisfetchISPI: 0.27, BTBMispredictISPI: 0.00, InstsMillions: 6},
	"porky":   {BranchPct: 19.8, Miss8K: 2.51, Miss32K: 0.66, PHTISPIB1: 0.42, PHTISPIB4: 0.48, BTBMisfetchISPI: 0.20, BTBMispredictISPI: 0.04, InstsMillions: 164},
}
