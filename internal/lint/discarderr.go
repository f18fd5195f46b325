package lint

import (
	"go/ast"
	"go/types"
)

// DiscardErr flags assignments that throw an error value away through
// the blank identifier (`_ = f()`, `v, _ := f()`). A docking campaign
// that swallows an error at prepare or extract time records a
// plausible-looking but wrong provenance row, which poisons every
// downstream query; errors must be handled, propagated, or the
// discard annotated with //lint:ignore discarderr <reason>. Test
// files are exempt.
var DiscardErr = &Analyzer{
	Name: "discarderr",
	Doc:  "flags blank-identifier discards of error values outside test files",
	Run:  runDiscardErr,
}

func runDiscardErr(pass *Pass) {
	errIface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if errIface == nil {
		return
	}
	isErr := func(t types.Type) bool {
		return t != nil && types.Implements(t, errIface)
	}
	pass.Inspect(func(n ast.Node, _ []ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || pass.IsTestFile(as.Pos()) {
			return
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name != "_" {
				continue
			}
			var t types.Type
			switch {
			case len(as.Rhs) == len(as.Lhs):
				t = pass.TypeOf(as.Rhs[i])
			case len(as.Rhs) == 1:
				// `_, ok := x.(T)` tests a type, it does not drop a
				// live error value; only multi-value calls count.
				if _, isAssert := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr); isAssert {
					continue
				}
				tup, ok := pass.TypeOf(as.Rhs[0]).(*types.Tuple)
				if ok && i < tup.Len() {
					t = tup.At(i).Type()
				}
			}
			if isErr(t) {
				pass.Reportf(id.Pos(),
					"error value discarded with blank identifier; handle or propagate it, or annotate //lint:ignore discarderr <reason>")
			}
		}
	})
}
