package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"regexp"
	"strings"
)

// ProvPair enforces the PROV-Wf activation-pairing invariant: every
// provenance activation that is *started* in a function must be
// *closed* (finished, failed or aborted) on every control-flow path
// out of that function. The paper's ~10% transient-failure
// re-execution rate is only recoverable because an interrupted
// activation is visible as RUNNING in hactivation; an activation left
// RUNNING by a *completed* code path is indistinguishable from a
// crash and corrupts both re-execution and every tet/makespan query.
//
// A "start" is a call into the prov package matching Begin*/Start*/
// Open*, or InsertActivation with a RUNNING status argument. A
// "close" is a prov call matching Close*/End*/Finish*/Fail*, which
// may be deferred. The check is structural (if/else, blocks, loops,
// switches and returns), not a full CFG: a close inside a loop or
// switch is treated optimistically as closing, and a return directly
// guarded by the start's own error check counts as the start having
// failed (no activation exists on that path).
var ProvPair = &Analyzer{
	Name: "provpair",
	Doc:  "flags provenance activation starts not paired with a close on every path",
	Run:  runProvPair,
}

var (
	provBeginRE = regexp.MustCompile(`^(Begin|Start|Open)`)
	provCloseRE = regexp.MustCompile(`^(Close|End|Finish|Fail)`)
)

func runProvPair(pass *Pass) {
	pass.Inspect(func(n ast.Node, _ []ast.Node) {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		}
		if body == nil || pass.IsTestFile(body.Pos()) {
			return
		}
		st := &ppState{}
		c := &ppChecker{pass: pass}
		c.stmts(body.List, st)
		if st.began && !st.closed && !st.terminated {
			pass.Reportf(st.beganPos,
				"provenance activation started here is not closed on every path to function exit; call a Close/End/Fail API or defer one")
		}
	})
}

type ppState struct {
	began      bool
	beganPos   token.Pos
	closed     bool
	terminated bool     // this path ends in return/panic
	errVars    []string // error idents assigned from the latest start
}

func (s ppState) fork() ppState {
	c := s
	c.errVars = append([]string(nil), s.errVars...)
	return c
}

type ppChecker struct {
	pass *Pass
}

// provCall classifies a call as start (+1), close (-1) or neither (0).
func (c *ppChecker) provCall(call *ast.CallExpr) int {
	fn := c.pass.calleeFunc(call)
	if fn == nil {
		return 0
	}
	path := pkgPathOf(fn)
	if path != "prov" && !strings.HasSuffix(path, "/prov") {
		return 0
	}
	name := fn.Name()
	switch {
	case provBeginRE.MatchString(name):
		return 1
	case provCloseRE.MatchString(name):
		return -1
	case name == "InsertActivation":
		for _, arg := range call.Args {
			if v := constValue(c.pass, arg); v != nil &&
				v.Kind() == constant.String && constant.StringVal(v) == "RUNNING" {
				return 1
			}
		}
	}
	return 0
}

// scanExpr finds start/close calls in an expression tree, skipping
// function literals (their bodies are analyzed as their own functions).
func (c *ppChecker) scanExpr(n ast.Node) (begin, end *ast.CallExpr) {
	if n == nil {
		return nil, nil
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			switch c.provCall(call) {
			case 1:
				if begin == nil {
					begin = call
				}
			case -1:
				if end == nil {
					end = call
				}
			}
		}
		return true
	})
	return begin, end
}

func (c *ppChecker) stmts(list []ast.Stmt, st *ppState) {
	for _, s := range list {
		c.stmt(s, st)
	}
}

func (c *ppChecker) stmt(s ast.Stmt, st *ppState) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		c.flat(s, nil, st)
	case *ast.AssignStmt:
		c.flat(s, s, st)
	case *ast.DeferStmt:
		if b, cl := c.scanExpr(s.Call); cl != nil || deferredClose(c, s) {
			st.closed = true
		} else if b != nil {
			st.began, st.beganPos, st.closed = true, b.Pos(), false
		}
	case *ast.ReturnStmt:
		// `return db.CloseActivation(...)` closes on this path.
		if _, end := c.scanExpr(s); end != nil {
			st.closed = true
		}
		if st.began && !st.closed {
			c.pass.Reportf(s.Pos(),
				"return leaves provenance activation open: no Close/End/Fail call on this path")
		}
		st.terminated = true
	case *ast.IfStmt:
		c.ifStmt(s, st)
	case *ast.BlockStmt:
		c.stmts(s.List, st)
	case *ast.ForStmt:
		sub := st.fork()
		if s.Body != nil {
			c.stmts(s.Body.List, &sub)
		}
		mergeLoop(st, sub)
	case *ast.RangeStmt:
		sub := st.fork()
		if s.Body != nil {
			c.stmts(s.Body.List, &sub)
		}
		mergeLoop(st, sub)
	case *ast.SwitchStmt:
		c.clauses(clauseBodies(s.Body), hasDefaultClause(s.Body), st)
	case *ast.TypeSwitchStmt:
		c.clauses(clauseBodies(s.Body), hasDefaultClause(s.Body), st)
	case *ast.SelectStmt:
		c.clauses(clauseBodies(s.Body), true, st)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt, st)
	case *ast.GoStmt:
		// The goroutine body is its own function for this analysis.
	}
}

// flat handles straight-line statements: a close marks the state
// closed, a start arms it. Assignments remember which error variables
// the start's result landed in, so the next `if err != nil { return }`
// is recognized as the start-failed path.
func (c *ppChecker) flat(s ast.Stmt, as *ast.AssignStmt, st *ppState) {
	b, cl := c.scanExpr(s)
	if cl != nil {
		st.closed = true
		return
	}
	if b == nil {
		return
	}
	st.began, st.beganPos, st.closed = true, b.Pos(), false
	st.errVars = nil
	if as != nil {
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				st.errVars = append(st.errVars, id.Name)
			}
		}
	}
}

// deferredClose matches `defer func() { ... Close ... }()`.
func deferredClose(c *ppChecker, d *ast.DeferStmt) bool {
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		found := false
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok && c.provCall(call) == -1 {
				found = true
			}
			return !found
		})
		return found
	}
	return false
}

func (c *ppChecker) ifStmt(s *ast.IfStmt, st *ppState) {
	beginHere, closeHere := c.scanExpr(s.Init)
	if b, cl := c.scanExpr(s.Cond); beginHere == nil && b != nil {
		beginHere = b
	} else if closeHere == nil && cl != nil {
		closeHere = cl
	}
	if closeHere != nil {
		st.closed = true
	}

	failGuard := beginHere != nil || isErrGuard(s.Cond, st.errVars)

	bodySt := st.fork()
	if failGuard {
		// Inside the guard the start failed: no activation to close.
		bodySt.began = false
	}
	c.stmts(s.Body.List, &bodySt)

	elseSt := st.fork()
	hasElse := s.Else != nil
	if hasElse {
		c.stmt(s.Else, &elseSt)
	}

	if beginHere != nil {
		// Start in if-init/cond: armed after the guard completes.
		st.began, st.beganPos, st.closed = true, beginHere.Pos(), false
		st.errVars = nil
		if bodySt.terminated && hasElse && elseSt.terminated {
			st.terminated = true
		}
		return
	}
	merge(st, bodySt, elseSt, hasElse)
}

// clauses merges switch/select case bodies.
func (c *ppChecker) clauses(bodies [][]ast.Stmt, exhaustive bool, st *ppState) {
	if len(bodies) == 0 {
		return
	}
	allClosed := exhaustive
	allTerminated := exhaustive
	anyBegan := false
	var beganPos token.Pos
	for _, body := range bodies {
		sub := st.fork()
		c.stmts(body, &sub)
		if !sub.terminated {
			allTerminated = false
			if !sub.closed {
				allClosed = false
			}
		}
		// Only a clause that falls through with an open activation
		// obligates the post-switch code: a clause that closed, or that
		// terminated (an open-at-return is already reported at the
		// return site), cannot leak past the switch.
		if sub.began && !sub.closed && !sub.terminated && !st.began {
			anyBegan = true
			beganPos = sub.beganPos
		}
	}
	if allClosed {
		st.closed = true
	}
	if allTerminated {
		st.terminated = true
	}
	if anyBegan && !st.began {
		// A clause started an activation; conservatively require the
		// fall-through code to close it.
		st.began, st.beganPos, st.closed = true, beganPos, false
	}
}

func clauseBodies(b *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, cl := range b.List {
		switch cl := cl.(type) {
		case *ast.CaseClause:
			out = append(out, cl.Body)
		case *ast.CommClause:
			out = append(out, cl.Body)
		}
	}
	return out
}

func hasDefaultClause(b *ast.BlockStmt) bool {
	for _, cl := range b.List {
		if cc, ok := cl.(*ast.CaseClause); ok && cc.List == nil {
			return true
		}
	}
	return false
}

// isErrGuard matches `x != nil` where x is one of the error variables
// the latest start assigned.
func isErrGuard(cond ast.Expr, errVars []string) bool {
	be, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	id, ok := ast.Unparen(be.X).(*ast.Ident)
	nilSide, ok2 := ast.Unparen(be.Y).(*ast.Ident)
	if !ok || !ok2 || nilSide.Name != "nil" {
		return false
	}
	for _, v := range errVars {
		if id.Name == v {
			return true
		}
	}
	return false
}

// merge folds the two branches of an if back into the parent state.
func merge(st *ppState, body, els ppState, hasElse bool) {
	liveBody := !body.terminated
	liveElse := hasElse && !els.terminated

	switch {
	case !hasElse:
		// Join of the taken-branch state and the fall-through state.
		if liveBody {
			if body.began && !st.began {
				st.began, st.beganPos = true, body.beganPos
				st.closed = body.closed
			} else if st.began {
				// Guaranteed closed only if closed on both paths.
				st.closed = st.closed && body.closed
			}
		}
	case liveBody && liveElse:
		st.began = body.began || els.began
		if body.began {
			st.beganPos = body.beganPos
		} else if els.began {
			st.beganPos = els.beganPos
		}
		st.closed = body.closed && els.closed
	case liveBody:
		*st = body.fork()
		st.terminated = false
	case liveElse:
		*st = els.fork()
		st.terminated = false
	default:
		st.terminated = true
	}
}

// mergeLoop folds a loop body back in: starts inside the loop must be
// closed inside it; a close inside the loop is treated optimistically.
func mergeLoop(st *ppState, sub ppState) {
	if sub.began && !sub.closed && !sub.terminated && !st.began {
		st.began, st.beganPos, st.closed = true, sub.beganPos, false
	}
	if st.began && sub.closed {
		st.closed = true
	}
}
