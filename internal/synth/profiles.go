package synth

// The 13 stock profiles imitate the paper's Table 2 benchmarks. Parameters
// were calibrated against the paper's Table 3 characteristics (branch
// fraction, 8K/32K miss rates, PHT/BTB penalty ordering), which
// paperbench -table 2 and -table 3 print beside the paper's values; see
// EXPERIMENTS.md for achieved-vs-paper numbers.
//
// Calibration notes (why the knobs look the way they do):
//   - Branch outcome streams must be low entropy (strong biases, agreeing
//     directions, long loop trips); high-entropy streams whiten the global
//     history register and destroy a 512-entry gshare PHT through aliasing,
//     which real loop-structured code does not do.
//   - Working-set size is set jointly by DriverCallSites, ZipfS and
//     NumFuncs; nested CallFrac must stay modest or call trees bottom out
//     in a few hot leaves and the effective footprint collapses.
//   - Patterned sites only pay off inside loops, where gshare can see the
//     site's own outcomes in its history; they produce the paper's
//     prediction loss under deep speculation (stale history).

// Profiles returns the stock benchmark profiles in the paper's order.
func Profiles() []Profile {
	return []Profile{
		Doduc(), Fpppp(), Su2cor(),
		Ditroff(), GCC(), Li(), Tex(),
		Cfront(), DBpp(), Groff(), IDL(), Lic(), Porky(),
	}
}

// ProfileByName finds a stock profile, searching the paper suite and the
// modern-footprint suite.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	for _, p := range ModernProfiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Doduc imitates the Monte-Carlo thermohydraulics Fortran code: moderate
// branch density, dominant predictable loops, mid-sized hot code.
func Doduc() Profile {
	return Profile{
		Name: "doduc", Lang: Fortran,
		Description: "Monte Carlo nuclear-reactor simulation (Fortran): loop-dominated, predictable branches",
		Seed:        0xd0d0c,
		NumFuncs:    110, SegmentsPerFunc: [2]int{6, 12},
		MeanBlockLen: 7.0, LoopFrac: 0.12, MeanLoopTrip: 12, LoopBodyMul: 2.0,
		CallFrac: 0.12, IndirectCallFrac: 0, IndirectJumpFrac: 0, IndirectFanout: 2,
		CondBiasFrac: 0.50, PatternFrac: 0.10, BiasNear: 0.03, BiasTakenSide: 0.15,
		HardRange: [2]float64{0.20, 0.60},
		ZipfS:     0.90, CallDepth: 3, DriverCallSites: 50, DriverCallExecP: 0.55,
	}
}

// Fpppp imitates the two-electron-integral quantum chemistry code: huge
// straight-line basic blocks streaming through a large footprint.
func Fpppp() Profile {
	return Profile{
		Name: "fpppp", Lang: Fortran,
		Description: "Quantum chemistry (Fortran): enormous basic blocks, very low branch density",
		Seed:        0xf9999,
		NumFuncs:    9, SegmentsPerFunc: [2]int{28, 42},
		MeanBlockLen: 22, LoopFrac: 0.06, MeanLoopTrip: 8, LoopBodyMul: 3.0,
		CallFrac: 0.04, IndirectCallFrac: 0, IndirectJumpFrac: 0, IndirectFanout: 2,
		CondBiasFrac: 0.88, PatternFrac: 0.04, BiasNear: 0.02, BiasTakenSide: 0.30,
		HardRange: [2]float64{0.15, 0.45},
		ZipfS:     0.65, CallDepth: 2, DriverCallSites: 12, DriverCallExecP: 0.95,
	}
}

// Su2cor imitates the quark-gluon lattice code: long predictable loops over
// a small hot kernel.
func Su2cor() Profile {
	return Profile{
		Name: "su2cor", Lang: Fortran,
		Description: "Quark-gluon lattice QCD (Fortran): long trip-count loops, tiny hot set",
		Seed:        0x50c02,
		NumFuncs:    28, SegmentsPerFunc: [2]int{8, 14},
		MeanBlockLen: 13, LoopFrac: 0.35, MeanLoopTrip: 20, LoopBodyMul: 2.0,
		CallFrac: 0.08, IndirectCallFrac: 0, IndirectJumpFrac: 0, IndirectFanout: 2,
		CondBiasFrac: 0.82, PatternFrac: 0.06, BiasNear: 0.02, BiasTakenSide: 0.30,
		HardRange: [2]float64{0.15, 0.45},
		ZipfS:     0.85, CallDepth: 2, DriverCallSites: 40, DriverCallExecP: 0.80,
	}
}

// Ditroff imitates the C troff text formatter.
func Ditroff() Profile {
	return Profile{
		Name: "ditroff", Lang: C,
		Description: "ditroff text formatter (C): branchy character processing",
		Seed:        0xd17,
		NumFuncs:    190, SegmentsPerFunc: [2]int{4, 10},
		MeanBlockLen: 3.5, LoopFrac: 0.08, MeanLoopTrip: 10, LoopBodyMul: 1.0,
		CallFrac: 0.18, IndirectCallFrac: 0, IndirectJumpFrac: 0.02, IndirectFanout: 6,
		CondBiasFrac: 0.85, PatternFrac: 0.08, BiasNear: 0.03, BiasTakenSide: 0.30,
		HardRange: [2]float64{0.10, 0.40},
		ZipfS:     0.55, CallDepth: 4, DriverCallSites: 120, DriverCallExecP: 0.55,
	}
}

// GCC imitates cc1 of GNU C 1.35: a large, flat code working set.
func GCC() Profile {
	return Profile{
		Name: "gcc", Lang: C,
		Description: "GNU C compiler cc1 (C): large flat working set, hard branches",
		Seed:        0x9cc,
		NumFuncs:    450, SegmentsPerFunc: [2]int{5, 11},
		MeanBlockLen: 3.6, LoopFrac: 0.08, MeanLoopTrip: 10, LoopBodyMul: 1.0,
		CallFrac: 0.15, IndirectCallFrac: 0, IndirectJumpFrac: 0.03, IndirectFanout: 8,
		CondBiasFrac: 0.85, PatternFrac: 0.08, BiasNear: 0.035, BiasTakenSide: 0.35,
		HardRange: [2]float64{0.10, 0.40},
		ZipfS:     0.55, CallDepth: 5, DriverCallSites: 220, DriverCallExecP: 0.50,
	}
}

// Li imitates the XLISP interpreter: small hot dispatch kernel, heavy calls.
func Li() Profile {
	return Profile{
		Name: "li", Lang: C,
		Description: "XLISP interpreter (C): small hot eval kernel, call heavy",
		Seed:        0x11,
		NumFuncs:    85, SegmentsPerFunc: [2]int{4, 9},
		MeanBlockLen: 3.0, LoopFrac: 0.06, MeanLoopTrip: 8, LoopBodyMul: 1.0,
		CallFrac: 0.18, IndirectCallFrac: 0, IndirectJumpFrac: 0.03, IndirectFanout: 8,
		CondBiasFrac: 0.88, PatternFrac: 0.08, BiasNear: 0.025, BiasTakenSide: 0.35,
		HardRange: [2]float64{0.10, 0.40},
		ZipfS:     0.15, CallDepth: 5, DriverCallSites: 140, DriverCallExecP: 0.70,
		PhaseSites: 70, PhaseIters: 2,
	}
}

// Tex imitates TeX 3.141: medium branch density, medium working set.
func Tex() Profile {
	return Profile{
		Name: "tex", Lang: C,
		Description: "TeX text formatter (C): medium branch density and working set",
		Seed:        0x7e8,
		NumFuncs:    260, SegmentsPerFunc: [2]int{4, 10},
		MeanBlockLen: 6.2, LoopFrac: 0.15, MeanLoopTrip: 16, LoopBodyMul: 1.2,
		CallFrac: 0.16, IndirectCallFrac: 0, IndirectJumpFrac: 0.02, IndirectFanout: 6,
		CondBiasFrac: 0.90, PatternFrac: 0.06, BiasNear: 0.02, BiasTakenSide: 0.35,
		HardRange: [2]float64{0.10, 0.40},
		ZipfS:     0.42, CallDepth: 4, DriverCallSites: 130, DriverCallExecP: 0.50,
	}
}

// Cfront imitates the AT&T C++-to-C translator: the largest working set.
func Cfront() Profile {
	return Profile{
		Name: "cfront", Lang: CPP,
		Description: "AT&T cfront C++ translator (C++): very large working set, virtual dispatch",
		Seed:        0xcf,
		NumFuncs:    420, SegmentsPerFunc: [2]int{5, 12},
		MeanBlockLen: 4.4, LoopFrac: 0.04, MeanLoopTrip: 5, LoopBodyMul: 1.0,
		CallFrac: 0.15, IndirectCallFrac: 0.18, IndirectJumpFrac: 0.02, IndirectFanout: 6,
		CondBiasFrac: 0.82, PatternFrac: 0.08, BiasNear: 0.04, BiasTakenSide: 0.35,
		HardRange: [2]float64{0.10, 0.40},
		ZipfS:     0.45, CallDepth: 5, DriverCallSites: 380, DriverCallExecP: 0.55,
	}
}

// DBpp imitates the delta-blue constraint solver: small and hot, with
// strongly history-correlated branches.
func DBpp() Profile {
	return Profile{
		Name: "db++", Lang: CPP,
		Description: "DeltaBlue constraint solver (C++): small hot object graph traversal",
		Seed:        0xdb,
		NumFuncs:    140, SegmentsPerFunc: [2]int{3, 8},
		MeanBlockLen: 4.6, LoopFrac: 0.20, MeanLoopTrip: 10, LoopBodyMul: 1.0,
		CallFrac: 0.22, IndirectCallFrac: 0.22, IndirectJumpFrac: 0.01, IndirectFanout: 5,
		CondBiasFrac: 0.92, PatternFrac: 0.05, BiasNear: 0.02, BiasTakenSide: 0.40,
		HardRange: [2]float64{0.10, 0.30},
		ZipfS:     1.00, CallDepth: 5, DriverCallSites: 50, DriverCallExecP: 0.60,
	}
}

// Groff imitates groff 1.9: a large C++ formatter.
func Groff() Profile {
	return Profile{
		Name: "groff", Lang: CPP,
		Description: "groff text formatter (C++): large working set, virtual dispatch",
		Seed:        0x90ff,
		NumFuncs:    280, SegmentsPerFunc: [2]int{4, 10},
		MeanBlockLen: 3.4, LoopFrac: 0.05, MeanLoopTrip: 5, LoopBodyMul: 1.0,
		CallFrac: 0.15, IndirectCallFrac: 0.20, IndirectJumpFrac: 0.02, IndirectFanout: 6,
		CondBiasFrac: 0.87, PatternFrac: 0.07, BiasNear: 0.03, BiasTakenSide: 0.40,
		HardRange: [2]float64{0.10, 0.40},
		ZipfS:     0.70, CallDepth: 5, DriverCallSites: 180, DriverCallExecP: 0.50,
	}
}

// IDL imitates the OMG IDL sample backend.
func IDL() Profile {
	return Profile{
		Name: "idl", Lang: CPP,
		Description: "OMG IDL backend (C++): very branchy, medium working set",
		Seed:        0x1d1,
		NumFuncs:    220, SegmentsPerFunc: [2]int{3, 9},
		MeanBlockLen: 3.0, LoopFrac: 0.08, MeanLoopTrip: 12, LoopBodyMul: 1.0,
		CallFrac: 0.14, IndirectCallFrac: 0.22, IndirectJumpFrac: 0.02, IndirectFanout: 3,
		CondBiasFrac: 0.90, PatternFrac: 0.06, BiasNear: 0.02, BiasTakenSide: 0.15,
		HardRange: [2]float64{0.10, 0.40},
		ZipfS:     1.05, CallDepth: 5, DriverCallSites: 60, DriverCallExecP: 0.55,
	}
}

// Lic imitates the SUIF linear-inequality calculator.
func Lic() Profile {
	return Profile{
		Name: "lic", Lang: CPP,
		Description: "SUIF linear inequality calculator (C++): branchy, medium-large working set",
		Seed:        0x11c,
		NumFuncs:    400, SegmentsPerFunc: [2]int{4, 10},
		MeanBlockLen: 3.7, LoopFrac: 0.12, MeanLoopTrip: 8, LoopBodyMul: 1.0,
		CallFrac: 0.16, IndirectCallFrac: 0.16, IndirectJumpFrac: 0.02, IndirectFanout: 6,
		CondBiasFrac: 0.86, PatternFrac: 0.07, BiasNear: 0.03, BiasTakenSide: 0.30,
		HardRange: [2]float64{0.10, 0.40},
		ZipfS:     0.70, CallDepth: 5, DriverCallSites: 140, DriverCallExecP: 0.50,
	}
}

// Porky imitates the SUIF porky optimizer pass driver.
func Porky() Profile {
	return Profile{
		Name: "porky", Lang: CPP,
		Description: "SUIF porky optimizer (C++): very branchy, medium working set",
		Seed:        0x9c4,
		NumFuncs:    260, SegmentsPerFunc: [2]int{4, 9},
		MeanBlockLen: 2.9, LoopFrac: 0.08, MeanLoopTrip: 12, LoopBodyMul: 1.0,
		CallFrac: 0.16, IndirectCallFrac: 0.18, IndirectJumpFrac: 0.02, IndirectFanout: 6,
		CondBiasFrac: 0.90, PatternFrac: 0.06, BiasNear: 0.02, BiasTakenSide: 0.20,
		HardRange: [2]float64{0.10, 0.40},
		ZipfS:     1.00, CallDepth: 5, DriverCallSites: 45, DriverCallExecP: 0.55,
	}
}
