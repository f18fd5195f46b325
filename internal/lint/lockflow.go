package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockFlow verifies lock discipline path-sensitively on the CFG. It
// runs a forward must-held analysis over every declared function and
// reports:
//
//   - a path that reaches a return (or falls off the end) while a
//     mutex locked in this function is still held and no deferred
//     unlock releases it. An unlock on some other path does not help:
//     an early return that leaks a read lock is exactly the provenance
//     TableShard snapshot bug shape;
//   - a mutex re-locked on a path where it is already held
//     (self-deadlock for sync.Mutex, writer starvation for RWMutex);
//   - a blocking operation — channel send or receive, select without
//     default, range over a channel, time.Sleep or sync.WaitGroup.Wait
//     — on a path where a lock is held. The engine and prov layers
//     serialize on small mutexes while thousands of activations run;
//     blocking inside a held region turns a nanosecond critical
//     section into a convoy, or a deadlock when the blocked operation
//     needs the same lock. sync.Cond.Wait is exempt: it unlocks
//     atomically and must be called with the lock held.
//
// Held-ness is tracked per lock expression ("t.mu") with must/may
// precision: a lock held on only one incoming path merges to may-held
// and is not reported, so correlated conditionals ("if c { Lock }; if
// c { Unlock }") stay clean. Paths that end in panic or os.Exit are
// not release points and are exempt. Unlocking a mutex the function
// never locked is deliberate in hand-off protocols (cond-wait worker
// loops) and stays silent. Function literals run later (or on other
// goroutines) and are not followed. Test files are exempt.
var LockFlow = &Analyzer{
	Name: "lockflow",
	Doc:  "CFG-based verification that every Lock/RLock is released on all paths, never re-acquired while held, and never held across a blocking operation",
	Run:  runLockFlow,
}

// lockOp describes one mutex method call site.
type lockOp struct {
	key     string // receiver expression, e.g. "e.mu"
	read    bool   // RLock/RUnlock
	acquire bool   // Lock/RLock vs Unlock/RUnlock
}

// mutexCall decodes a call expression into a lockOp when it is a
// sync.Mutex/RWMutex (un)lock.
func mutexCall(pass *Pass, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op = lockOp{acquire: true}
	case "RLock":
		op = lockOp{acquire: true, read: true}
	case "Unlock":
		op = lockOp{}
	case "RUnlock":
		op = lockOp{read: true}
	default:
		return lockOp{}, false
	}
	if !isSyncLocker(pass.TypeOf(sel.X)) {
		return lockOp{}, false
	}
	op.key = types.ExprString(sel.X)
	return op, true
}

// lockHeld is one held lock in a lockFact.
type lockHeld struct {
	read bool      // RLock vs Lock
	must bool      // held on every path reaching here
	site token.Pos // first acquire site
}

// lockFact maps lock key ("t.mu" / "t.mu:r") to held state. Facts are
// treated immutably; transfer copies before modifying.
type lockFact map[string]lockHeld

func (f lockFact) clone() lockFact {
	out := make(lockFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// lockKeyOf builds the fact key: read and write locks of one RWMutex
// are distinct resources.
func lockKeyOf(op lockOp) string {
	if op.read {
		return op.key + ":r"
	}
	return op.key
}

// lockProblem is the FlowProblem for one function.
type lockProblem struct {
	pass *Pass
	// ctrl maps the CFG nodes that stand in for a select or range
	// statement (each select's comm statements, each range operand)
	// to that statement.
	ctrl map[ast.Node]ast.Stmt
	// report, when non-nil, receives re-lock and blocking findings
	// during the final replay pass (nil during fixpoint iteration).
	report func(pos token.Pos, msg string)
}

func (lp *lockProblem) EntryFact() Fact { return lockFact{} }

func (lp *lockProblem) Transfer(b *Block, in Fact) Fact {
	f := in.(lockFact).clone()
	for _, n := range b.Nodes {
		lp.transferNode(n, f)
	}
	return f
}

// transferNode applies every mutex call in one node to the fact and,
// during replay, reports blocking operations under a must-held lock.
// Function literals run later (or elsewhere) and are skipped; defer
// statements are release points handled separately at exits.
func (lp *lockProblem) transferNode(n ast.Node, f lockFact) {
	// A comm's channel operation blocks only when its select has no
	// default, and is then reported once, as the select.
	inComm := false
	switch s := lp.ctrl[n].(type) {
	case *ast.SelectStmt:
		inComm = true
		if !selectHasDefault(s) {
			lp.blocking(f, s.Pos(), "blocking select")
		}
	case *ast.RangeStmt:
		if t := lp.pass.TypeOf(s.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				lp.blocking(f, s.Pos(), "range over channel")
			}
		}
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			if !inComm {
				lp.blocking(f, m.Pos(), "channel send")
			}
		case *ast.UnaryExpr:
			if m.Op == token.ARROW && !inComm {
				lp.blocking(f, m.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			op, ok := mutexCall(lp.pass, m)
			if !ok {
				if lp.report != nil {
					lp.blocking(f, m.Pos(), blockingCall(lp.pass, m))
				}
				return true
			}
			key := lockKeyOf(op)
			if op.acquire {
				if held, ok := f[key]; ok && held.must && !op.read && lp.report != nil {
					lp.report(m.Pos(), op.key+" re-locked on a path where it is already held: self-deadlock")
				}
				if _, ok := f[key]; !ok {
					f[key] = lockHeld{read: op.read, must: true, site: m.Pos()}
				} else {
					h := f[key]
					h.must = true
					f[key] = h
				}
			} else {
				delete(f, key)
			}
		}
		return true
	})
}

// blocking reports the blocking operation what ("" for none) during
// replay when some lock is must-held; the smallest held key is named,
// so messages are stable.
func (lp *lockProblem) blocking(f lockFact, pos token.Pos, what string) {
	if lp.report == nil || what == "" {
		return
	}
	held := ""
	for key, h := range f {
		if h.must && (held == "" || key < held) {
			held = key
		}
	}
	if held != "" {
		lp.report(pos, what+" while "+strings.TrimSuffix(held, ":r")+" is held; shrink the critical section")
	}
}

// blockingCall names a call that parks the goroutine — time.Sleep or
// sync.WaitGroup.Wait — or returns "".
func blockingCall(pass *Pass, call *ast.CallExpr) string {
	switch funcKey(pass.calleeFunc(call)) {
	case "time.Sleep":
		return "time.Sleep"
	case "sync.WaitGroup.Wait":
		return "WaitGroup.Wait"
	}
	return ""
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

func (lp *lockProblem) Merge(a, b Fact) Fact {
	fa, fb := a.(lockFact), b.(lockFact)
	out := make(lockFact, len(fa)+len(fb))
	for k, va := range fa {
		if vb, ok := fb[k]; ok {
			merged := va
			merged.must = va.must && vb.must
			if vb.site < merged.site {
				merged.site = vb.site
			}
			out[k] = merged
		} else {
			va.must = false
			out[k] = va
		}
	}
	for k, vb := range fb {
		if _, ok := fa[k]; !ok {
			vb.must = false
			out[k] = vb
		}
	}
	return out
}

func (lp *lockProblem) Equal(a, b Fact) bool {
	fa, fb := a.(lockFact), b.(lockFact)
	if len(fa) != len(fb) {
		return false
	}
	for k, va := range fa {
		vb, ok := fb[k]
		if !ok || va != vb {
			return false
		}
	}
	return true
}

func runLockFlow(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			checkLockFlow(pass, fd)
		}
	}
}

// deferredReleases collects the lock keys released by the function's
// defer statements — directly (defer mu.Unlock()) or inside a
// deferred closure.
func deferredReleases(pass *Pass, g *CFG) map[string]bool {
	out := map[string]bool{}
	record := func(call *ast.CallExpr) {
		if op, ok := mutexCall(pass, call); ok && !op.acquire {
			out[lockKeyOf(op)] = true
		}
	}
	for _, ds := range g.Defers {
		record(ds.Call)
		if lit, ok := ast.Unparen(ds.Call.Fun).(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					record(call)
				}
				return true
			})
		}
	}
	return out
}

func checkLockFlow(pass *Pass, fd *ast.FuncDecl) {
	// Cheap pre-filter: no mutex calls, no analysis.
	hasMutex := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if hasMutex {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := mutexCall(pass, call); ok {
				hasMutex = true
			}
		}
		return true
	})
	if !hasMutex {
		return
	}

	lp := &lockProblem{pass: pass, ctrl: map[ast.Node]ast.Stmt{}}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if comm := c.(*ast.CommClause).Comm; comm != nil {
					lp.ctrl[comm] = s
				}
			}
		case *ast.RangeStmt:
			lp.ctrl[s.X] = s
		}
		return true
	})
	g := pass.FuncCFG(fd)
	in := ForwardFlow(g, lp)
	deferred := deferredReleases(pass, g)

	type finding struct {
		pos token.Pos
		msg string
	}
	var findings []finding
	seen := map[string]bool{}
	add := func(pos token.Pos, msg string) {
		k := msg + "@" + pass.Fset.Position(pos).String()
		if !seen[k] {
			seen[k] = true
			findings = append(findings, finding{pos, msg})
		}
	}

	// leakCheck reports every must-held, non-deferred lock at an exit
	// point.
	leakCheck := func(f lockFact, pos token.Pos, how string) {
		for key, h := range f {
			if !h.must || deferred[key] {
				continue
			}
			name := "Lock()"
			if h.read {
				name = "RLock()"
			}
			add(pos, strings.TrimSuffix(key, ":r")+"."+name+" acquired at "+
				pass.Fset.Position(h.site).String()+" is still held when this path "+how)
		}
	}

	// Replay each reachable block with its final in-fact: re-lock and
	// blocking reports happen inside the transfer, leak reports at
	// every return node and at the fall-off-the-end block's out-fact.
	lp.report = add
	for _, b := range g.Blocks {
		inF, reachable := in[b]
		if !reachable {
			continue
		}
		f := inF.(lockFact).clone()
		for _, n := range b.Nodes {
			if ret, isRet := n.(*ast.ReturnStmt); isRet {
				leakCheck(f, ret.Pos(), "returns")
			}
			lp.transferNode(n, f)
		}
		if b == g.FallsOff {
			leakCheck(f, fd.Body.Rbrace, "reaches the end of "+fd.Name.Name)
		}
	}

	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}
