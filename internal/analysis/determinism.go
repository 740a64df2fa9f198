package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Determinism forbids nondeterminism sources inside the simulator packages:
// wall-clock reads, the process-global math/rand generator, and stores or
// output emission driven by map-iteration order. Simulation results must be
// a pure function of (config, trace, seed) — the probe tests assert
// bit-identical reruns, and every table in the paper reproduction depends
// on it.
//
// internal/hosttime is the one sanctioned wall-clock gateway: host-side
// span timing needs a monotonic clock, and funnelling every read through
// that package keeps the exemption auditable. The analyzer still runs
// there (the rand and map-order rules apply), but the wall-clock rule is
// waived for it and nowhere else.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, and map-iteration-ordered " +
		"output in simulator packages (internal/hosttime alone may read the clock)",
	AppliesTo: inPaths("internal/core", "internal/cache", "internal/synth",
		"internal/experiments", "internal/obs", "internal/hosttime", "internal/pool"),
	Run: runDeterminism,
}

// wallClockSanctioned reports whether pkgPath is the hosttime gateway (or a
// test unit of it): the only place a wall-clock read is permitted.
func wallClockSanctioned(pkgPath string) bool {
	pkgPath = strings.TrimSuffix(pkgPath, "_test")
	return strings.Contains("/"+pkgPath+"/", "/hosttime/")
}

// wallClockFuncs are time-package functions that read or wait on the wall
// clock. Deterministic uses of package time (constants, formatting a value
// passed in) remain allowed.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// seededRandFuncs are the math/rand constructors that take an explicit
// source or seed; every other package-level rand function draws from the
// process-global generator.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

// emissionSinks are call names that emit output or accumulate rendered
// results; reached from inside a map range they publish map order.
var emissionSinks = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"AddRow": true, "AddRowF": true, "AddBar": true,
	"Render": true, "RenderCSV": true,
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	sanctioned := wallClockSanctioned(pass.Pkg.PkgPath)
	inspectWithStack(pass.Pkg.Files, func(stack []ast.Node) bool {
		switch n := stack[len(stack)-1].(type) {
		case *ast.CallExpr:
			pkg, fn := calleePkgFunc(info, n)
			switch pkg {
			case "time":
				if wallClockFuncs[fn] && !sanctioned {
					pass.Reportf(n.Pos(), "time.%s reads the wall clock; simulator results must depend only on (config, trace, seed)", fn)
				}
			case "math/rand", "math/rand/v2":
				if !seededRandFuncs[fn] {
					pass.Reportf(n.Pos(), "package-level rand.%s uses the process-global generator; use a seeded *rand.Rand (see internal/xrand)", fn)
				}
			}
		case *ast.RangeStmt:
			checkMapRange(pass, stack, n)
		}
		return true
	})
}

// checkMapRange flags statements inside a range-over-map body that leak the
// (randomized) iteration order: emission-sink calls, and stores through
// variables declared outside the loop — unless the stored-to variable is
// sorted afterwards in the same function.
func checkMapRange(pass *Pass, stack []ast.Node, rs *ast.RangeStmt) {
	info := pass.Pkg.Info
	tv, ok := info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	fn := enclosingFunc(stack)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.CallExpr:
			name := calleeName(s)
			if emissionSinks[name] {
				pass.Reportf(s.Pos(), "%s inside a range over a map emits in nondeterministic iteration order; collect and sort first", name)
			}
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				checkEscapingStore(pass, info, rs, fn, lhs)
			}
		case *ast.IncDecStmt:
			checkEscapingStore(pass, info, rs, fn, s.X)
		}
		return true
	})
}

// checkEscapingStore flags an assignment target rooted at a variable
// declared outside the range statement, unless that variable is later
// passed to a sort call (the collect-then-sort idiom).
func checkEscapingStore(pass *Pass, info *types.Info, rs *ast.RangeStmt, fn ast.Node, lhs ast.Expr) {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return
	}
	obj := info.ObjectOf(id)
	if obj == nil {
		return
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return
	}
	if obj.Pos() >= rs.Pos() && obj.Pos() < rs.End() {
		return // loop-local: order cannot escape
	}
	// The collect-then-sort idiom erases iteration order before use.
	if sortedAfterwards(info, fn, obj) {
		return
	}
	pass.Reportf(lhs.Pos(), "store to %q inside a range over a map happens in nondeterministic iteration order; iterate a sorted key slice instead", id.Name)
}

// sortedAfterwards reports whether fn contains a sort.* / slices.Sort* call
// whose first argument is rooted at obj.
func sortedAfterwards(info *types.Info, fn ast.Node, obj types.Object) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || len(call.Args) == 0 {
			return !found
		}
		pkg, _ := calleePkgFunc(info, call)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		if id := rootIdent(call.Args[0]); id != nil && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// enclosingFunc returns the innermost FuncDecl/FuncLit on the stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}

// calleeName returns the bare name of a call's callee ("Printf" for both
// fmt.Printf and w.Printf).
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
