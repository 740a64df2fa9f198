package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnitCheck enforces the dimensional contract between the simulator's two
// time-like quantities, metrics.Cycles and metrics.Slots (slots = cycles ×
// fetch width; the paper's ISPI tables are pure slot arithmetic). The
// compiler already rejects mixed Cycles/Slots arithmetic because they are
// distinct defined types; this analyzer covers the escapes the type system
// permits:
//
//   - a direct conversion between the unit types (Slots(c) on a Cycles
//     value, or the reverse) type-checks but silently drops the fetch-width
//     factor — the only sanctioned crossings are Cycles.Slots(width) and
//     Slots.Cycles(width);
//   - a conversion from a unit type to a raw integer type (int64(c),
//     int(s), uint64(c), a named integer type) launders the dimension away
//     mid-expression — unit values leave the system only through the
//     explicit Int64 boundary method (float conversions stay legal: ratios
//     such as IPC and ISPI are dimensionless by construction);
//   - a product of two non-constant unit-typed operands re-implements width
//     scaling outside the helpers (for example Cycles(width) * c), where a
//     transposed factor is invisible to review — scaling by an untyped
//     constant (c * 2) stays legal;
//   - an int64/int declaration (struct field, parameter, result, var/const)
//     whose name says it holds cycles or slots is a silent reversion to the
//     untyped world. Wire-format and export fields carrying a json tag are
//     exempt — wire encodings stay raw int64 by design, with conversions at
//     encode/decode.
//
// Methods declared on the unit types themselves (the conversion helpers in
// internal/metrics/unit.go) are exempt from all rules: they are the one
// place the raw representation is allowed to show.
var UnitCheck = &Analyzer{
	Name: "unitcheck",
	Doc:  "cycle and issue-slot quantities use metrics.Cycles/Slots and never mix without an explicit conversion",
	AppliesTo: inPaths("internal/core", "internal/cache", "internal/metrics", "internal/obs",
		"internal/experiments", "internal/distsweep", "cmd"),
	Run: runUnitCheck,
}

// unitTypeName reports which unit type t is: "Cycles", "Slots", or "" for
// anything else. Aliases (core.Cycles, core.Slots) resolve to the same
// named type, so they are covered for free.
func unitTypeName(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/metrics") {
		return ""
	}
	if n := obj.Name(); n == "Cycles" || n == "Slots" {
		return n
	}
	return ""
}

// rawIntName reports the name of a raw (non-unit) integer type, or "" when
// t is not an integer type or is itself a unit type.
func rawIntName(t types.Type) string {
	if unitTypeName(t) != "" {
		return ""
	}
	if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
		return types.TypeString(t, func(p *types.Package) string { return p.Name() })
	}
	return ""
}

// rawBasicIntName is rawIntName restricted to the bare builtin types the
// pre-split code used for both quantities. The declaration heuristic only
// fires on these: a named integer type (an enum, a worker-slot id) is
// already a deliberate typing decision, not a unit reversion.
func rawBasicIntName(t types.Type) string {
	b, ok := t.(*types.Basic)
	if !ok {
		return ""
	}
	switch b.Kind() {
	case types.Int, types.Int64:
		return b.Name()
	}
	return ""
}

// unitishName guesses the unit a raw-integer declaration's name claims to
// hold: names ending in cycle/cycles (or exactly "cy", the engine's clock
// convention) read as cycle counts, names ending in slot/slots as slot
// counts.
func unitishName(name string) string {
	lower := strings.ToLower(name)
	switch {
	case lower == "cy", strings.HasSuffix(lower, "cycle"), strings.HasSuffix(lower, "cycles"):
		return "Cycles"
	case strings.HasSuffix(lower, "slots"):
		// Only the plural: a singular "slot" is an index (fetch-group
		// position, worker slot), not a lost-opportunity count.
		return "Slots"
	}
	return ""
}

func runUnitCheck(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && unitReceiver(info, fd) {
				continue // the sanctioned conversion helpers themselves
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkUnitConversion(pass, info, n)
				case *ast.BinaryExpr:
					checkUnitProduct(pass, info, n)
				case *ast.StructType:
					checkUnitFields(pass, info, n)
				case *ast.FuncType:
					checkUnitSignature(pass, info, n)
				case *ast.ValueSpec:
					checkUnitValueSpec(pass, info, n)
				}
				return true
			})
		}
	}
}

// unitReceiver reports whether fd is a method declared on Cycles or Slots.
func unitReceiver(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	return unitTypeName(info.TypeOf(fd.Recv.List[0].Type)) != ""
}

// checkUnitConversion flags T(x) conversions that cross between the unit
// types or unwrap a unit value to a raw integer type.
func checkUnitConversion(pass *Pass, info *types.Info, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	target := tv.Type
	argUnit := unitTypeName(info.TypeOf(call.Args[0]))
	if argUnit == "" {
		return
	}
	switch targetUnit := unitTypeName(target); {
	case targetUnit != "" && targetUnit != argUnit:
		helper := "Cycles.Slots(width)"
		if argUnit == "Slots" {
			helper = "Slots.Cycles(width)"
		}
		pass.Reportf(call.Pos(),
			"direct %s -> %s conversion drops the fetch-width factor; use %s", argUnit, targetUnit, helper)
	case targetUnit == "":
		if raw := rawIntName(target); raw != "" {
			pass.Reportf(call.Pos(),
				"%s value unwrapped to raw %s; cross the unit boundary explicitly with the Int64 method", argUnit, raw)
		}
	}
}

// checkUnitProduct flags a product of two non-constant unit-typed operands:
// width scaling written by hand instead of through the helpers.
func checkUnitProduct(pass *Pass, info *types.Info, bin *ast.BinaryExpr) {
	if bin.Op != token.MUL {
		return
	}
	xUnit := unitTypeName(info.TypeOf(bin.X))
	yUnit := unitTypeName(info.TypeOf(bin.Y))
	if xUnit == "" || yUnit == "" {
		return
	}
	if xtv, ok := info.Types[bin.X]; ok && xtv.Value != nil {
		return // constant scale factor, e.g. Cycles(2) * c
	}
	if ytv, ok := info.Types[bin.Y]; ok && ytv.Value != nil {
		return
	}
	pass.Reportf(bin.Pos(),
		"product of two unit-typed values (%s * %s); width scaling belongs in Cycles.Slots/Slots.Cycles", xUnit, yUnit)
}

// checkUnitFields flags raw-integer struct fields whose names claim a unit,
// except wire/export fields carrying a json tag.
func checkUnitFields(pass *Pass, info *types.Info, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if field.Tag != nil && strings.Contains(field.Tag.Value, `json:"`) {
			continue // wire formats stay raw int64 by design
		}
		raw := rawBasicIntName(info.TypeOf(field.Type))
		if raw == "" {
			continue
		}
		for _, name := range field.Names {
			if unit := unitishName(name.Name); unit != "" {
				pass.Reportf(name.Pos(),
					"field %s declared as raw %s; a %s count should be metrics.%s", name.Name, raw, strings.ToLower(unit), unit)
			}
		}
	}
}

// checkUnitSignature flags raw-integer parameters and named results whose
// names claim a unit.
func checkUnitSignature(pass *Pass, info *types.Info, ft *ast.FuncType) {
	check := func(fl *ast.FieldList, what string) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			raw := rawBasicIntName(info.TypeOf(field.Type))
			if raw == "" {
				continue
			}
			for _, name := range field.Names {
				if unit := unitishName(name.Name); unit != "" {
					pass.Reportf(name.Pos(),
						"%s %s declared as raw %s; a %s count should be metrics.%s", what, name.Name, raw, strings.ToLower(unit), unit)
				}
			}
		}
	}
	check(ft.Params, "parameter")
	check(ft.Results, "result")
}

// checkUnitValueSpec flags raw-integer var/const declarations whose names
// claim a unit. Only explicitly typed specs are checked: the declared type
// is the author's statement of intent.
func checkUnitValueSpec(pass *Pass, info *types.Info, spec *ast.ValueSpec) {
	if spec.Type == nil {
		return
	}
	raw := rawBasicIntName(info.TypeOf(spec.Type))
	if raw == "" {
		return
	}
	for _, name := range spec.Names {
		if name.Name == "_" {
			continue
		}
		if unit := unitishName(name.Name); unit != "" {
			pass.Reportf(name.Pos(),
				"%s declared as raw %s; a %s count should be metrics.%s", name.Name, raw, strings.ToLower(unit), unit)
		}
	}
}
