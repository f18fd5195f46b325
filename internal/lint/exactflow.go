package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ExactFlow guards the bit-exactness contracts. A function whose doc
// comment carries an `//exact:` directive promises its result is
// bit-identical to a reference path (the batched scorers against the
// per-pose scorers, the SoA kinematics against the AoS path); that
// promise dies the moment a float32 value participates in the
// arithmetic, because float32 rounding is exactly the freedom the
// tolerance-bounded fast path (ScoreBatchFast) paid for with its
// error envelope. The analyzer flags, inside the body of a directive-
// marked function:
//
//   - conversions to a float32-based type (narrowing introduces
//     rounding the reference path never performs);
//   - binary arithmetic (+ - * /) on float32 operands;
//   - compound assignments (+= -= *= /=) to float32 operands.
//
// Widening float64(x32) is exempt — reading a float32 source (for
// example a single-precision grid lattice) and widening it before any
// arithmetic is exactly how the exact paths are specified to consume
// such storage. Declaring or passing float32 values is likewise fine;
// only arithmetic and narrowing inside the exact function break the
// contract. Code that legitimately needs float32 belongs in a
// function without the directive (the fast kernels), or under a
// //lint:ignore exactflow <reason>.
var ExactFlow = &Analyzer{
	Name:     "exactflow",
	Doc:      "flags float32 narrowing and arithmetic inside //exact: bit-identical functions",
	Severity: Error,
	Run:      runExactFlow,
}

// exactDirective reports whether the function's doc comment carries
// an //exact: directive.
func exactDirective(fd *ast.FuncDecl) bool {
	_, ok := docDirective(fd.Doc, "exact")
	return ok
}

func runExactFlow(pass *Pass) {
	pass.Inspect(func(n ast.Node, stack []ast.Node) {
		var inExact bool
		for i := len(stack) - 1; i >= 0; i-- {
			if fd, ok := stack[i].(*ast.FuncDecl); ok {
				inExact = exactDirective(fd)
				break
			}
		}
		if !inExact || pass.IsTestFile(n.Pos()) {
			return
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			if len(e.Args) != 1 {
				return
			}
			tv, ok := pass.Info.Types[e.Fun]
			if !ok || !tv.IsType() {
				return
			}
			if !isFloat32(tv.Type) || isFloat32(pass.TypeOf(e.Args[0])) {
				return // not a narrowing to float32
			}
			pass.Reportf(e.Pos(),
				"float32 conversion inside //exact: function; narrowing breaks bit-identity — move it to the tolerance fast path or annotate //lint:ignore exactflow <reason>")
		case *ast.BinaryExpr:
			switch e.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO:
			default:
				return
			}
			if !isFloat32(pass.TypeOf(e.X)) && !isFloat32(pass.TypeOf(e.Y)) {
				return
			}
			pass.Reportf(e.OpPos,
				"float32 %s arithmetic inside //exact: function; float32 rounding breaks bit-identity — move it to the tolerance fast path or annotate //lint:ignore exactflow <reason>", e.Op)
		case *ast.AssignStmt:
			switch e.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			default:
				return
			}
			if len(e.Lhs) != 1 || !isFloat32(pass.TypeOf(e.Lhs[0])) {
				return
			}
			pass.Reportf(e.TokPos,
				"float32 %s inside //exact: function; float32 rounding breaks bit-identity — move it to the tolerance fast path or annotate //lint:ignore exactflow <reason>", e.Tok)
		}
	})
}

func isFloat32(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Float32
}
