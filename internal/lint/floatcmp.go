package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
)

// FloatCmp flags == and != on floating-point (and complex) operands.
// RMSD and FEB values travel through dozens of accumulations before
// they are compared; an exact comparison silently turns "same pose"
// into "different pose" on a different architecture or optimization
// level, which breaks the re-execution determinism the provenance
// store depends on.
//
// Exemptions, in decreasing order of frequency:
//   - comparisons against an exact constant zero (division and
//     missing-value guards: 0 is exactly representable and such guards
//     test "was this ever assigned", not numeric closeness);
//   - self-comparison x != x, the portable NaN test;
//   - comparisons where both operands are compile-time constants;
//   - code inside an approved epsilon helper (function name matching
//     almost/approx/close/within/eps/toler), which is where the one
//     legitimate exact comparison per helper lives.
var FloatCmp = &Analyzer{
	Name: "floatcmp",
	Doc:  "flags exact ==/!= on floating-point expressions outside approved epsilon helpers",
	Run:  runFloatCmp,
}

var epsilonHelperRE = regexp.MustCompile(`(?i)(almost|approx|close|within|eps|toler)`)

func runFloatCmp(pass *Pass) {
	pass.Inspect(func(n ast.Node, stack []ast.Node) {
		cmp, ok := n.(*ast.BinaryExpr)
		if !ok || (cmp.Op != token.EQL && cmp.Op != token.NEQ) {
			return
		}
		if pass.IsTestFile(cmp.Pos()) {
			return
		}
		if !isFloatExpr(pass, cmp.X) && !isFloatExpr(pass, cmp.Y) {
			return
		}
		xv := constValue(pass, cmp.X)
		yv := constValue(pass, cmp.Y)
		if xv != nil && yv != nil {
			return // constant folding, decided at compile time
		}
		if isConstZero(xv) || isConstZero(yv) {
			return // exact-zero guard
		}
		if types.ExprString(cmp.X) == types.ExprString(cmp.Y) {
			return // x != x: the NaN idiom
		}
		if epsilonHelperRE.MatchString(enclosingFuncName(stack)) {
			return
		}
		pass.Reportf(cmp.OpPos,
			"exact floating-point %s comparison; compare with an epsilon helper (e.g. math.Abs(a-b) <= tol) or annotate //lint:ignore floatcmp <reason>",
			cmp.Op)
	})
}

func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

func constValue(pass *Pass, e ast.Expr) constant.Value {
	if pass.Info == nil {
		return nil
	}
	return pass.Info.Types[e].Value
}

func isConstZero(v constant.Value) bool {
	if v == nil {
		return false
	}
	switch v.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(v) == 0
	}
	return false
}
