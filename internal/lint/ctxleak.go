package lint

import (
	"go/ast"
	"go/token"
)

// CtxLeak targets goroutine lifecycle bugs in the engine's long-lived
// worker pools: a `go func() { ... }` whose body contains an infinite
// `for {}` with no shutdown path at all — no select, no channel
// receive, no return/break — can never be stopped and leaks a worker
// per stage; every worker loop must be able to observe a done/ctx
// channel, a closed job channel, or a stop message.
var CtxLeak = &Analyzer{
	Name: "ctxleak",
	Doc:  "flags goroutine worker loops without a shutdown path",
	Run:  runCtxLeak,
}

func runCtxLeak(pass *Pass) {
	pass.Inspect(func(n ast.Node, _ []ast.Node) {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return
		}
		if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
			checkWorkerLoops(pass, lit)
		}
	})
}

// checkWorkerLoops flags `for {}` loops inside the goroutine body that
// provide no way out.
func checkWorkerLoops(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok || loop.Cond != nil {
			return true
		}
		if hasShutdownPath(loop.Body) {
			return true
		}
		pass.Reportf(loop.For,
			"infinite worker loop with no shutdown path: add a select on a done/ctx channel, receive from a closable job channel, or a return/break condition")
		return true
	})
}

// hasShutdownPath reports whether a loop body can ever exit: a select,
// a channel receive, a return, a break, or a panic call. Nested
// function literals do not count — an exit inside them exits the
// inner function, not the loop.
func hasShutdownPath(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt, *ast.ReturnStmt:
			found = true
		case *ast.BranchStmt:
			if n.Tok == token.BREAK || n.Tok == token.GOTO {
				found = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			found = true // range over a channel/collection terminates
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
				found = true
			}
		}
		return !found
	})
	return found
}
