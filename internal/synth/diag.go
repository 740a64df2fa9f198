package synth

import "specfetch/internal/isa"

// CondClass reports the generation class of the conditional branch at pc:
// "bias", "pattern", "hard", "loop", or "guard". It returns "" for
// addresses that are not conditional sites. It exists for calibration
// diagnostics and tests.
func (b *Bench) CondClass(pc isa.Addr) string {
	if !b.img.Contains(pc) || b.img.At(pc).Kind != isa.CondBranch {
		return ""
	}
	if s := b.siteAt(pc); s >= 0 {
		return b.conds[s].class.String()
	}
	return ""
}
