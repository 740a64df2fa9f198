package analysis

import (
	"go/ast"
)

// SweepLint bans ad-hoc diagnostics in the distributed-sweep layer. The
// coordinator and worker daemon report what they did through registry
// counters (specfetch_dispatch_*, specfetch_worker_*), which the fault
// tests and paperbench's fleet summary line read, and the daemon speaks
// only through the stderr writer its run function is given. A stray
// fmt.Fprintf(os.Stderr, ...) or log.Printf in that layer is an event no
// counter records, and its process-global write races with the daemon's
// "listening on" announcement line that tests and scripts parse.
//
// Flagged inside internal/distsweep and cmd/sweepworker:
//
//   - any call to the global log package's printers (log.Print[f|ln],
//     log.Fatal*, log.Panic*), and
//   - any fmt.Fprint/Fprintf/Fprintln whose first argument is the
//     os.Stderr selector.
//
// Printing to an injected io.Writer (the daemon's `stderr` parameter) is
// deliberately out of scope: that path is the test-visible CLI contract,
// not ambient process-global output.
var SweepLint = &Analyzer{
	Name:      "sweeplint",
	Doc:       "distsweep and sweepworker report through counters or an injected writer, not ad-hoc stderr prints",
	AppliesTo: inPaths("internal/distsweep", "cmd/sweepworker"),
	Run:       runSweepLint,
}

// sweepLintLogFuncs are the process-global log printers banned in the
// sweep layer. Setup calls (log.SetOutput, log.New, ...) are not printers
// and stay legal.
var sweepLintLogFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fatal": true, "Fatalf": true, "Fatalln": true,
	"Panic": true, "Panicf": true, "Panicln": true,
}

func runSweepLint(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, fn := calleePkgFunc(info, call)
			switch {
			case pkg == "log" && sweepLintLogFuncs[fn]:
				pass.Reportf(call.Pos(),
					"log.%s in the sweep layer writes process-global output; count it in the registry or print to the injected stderr writer", fn)
			case pkg == "fmt" && (fn == "Fprint" || fn == "Fprintf" || fn == "Fprintln") && stderrCall(info, call):
				pass.Reportf(call.Pos(),
					"fmt.%s(os.Stderr, ...) in the sweep layer writes process-global output; count it in the registry or print to the injected stderr writer", fn)
			}
			return true
		})
	}
}
