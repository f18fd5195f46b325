// Control-flow graphs of function bodies. BuildCFG lowers one body to
// basic blocks connected by branch, loop, switch, select, goto and
// panic edges. The builder is purely syntactic — a caller-supplied
// predicate classifies terminating calls (os.Exit, log.Fatal, ...) so
// it needs no type information. No analyzer reads a CFG since lockflow
// was retired; the builder stays, pinned by its statement-partition
// property test, until a later change deletes both (ROADMAP, "Delete
// the CFG builder").
package lint

import (
	"go/ast"
	"go/token"
)

// CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks in creation order; Blocks[0] is Entry.
	Blocks []*Block
	// Entry is the block control enters at the top of the body.
	Entry *Block
	// Exit is the synthetic block every return, terminating call and
	// fall-off-the-end path flows into. It holds no nodes.
	Exit *Block
	// FallsOff is the block that flows off the closing brace without a
	// return (nil when the body ends in return/panic on every path).
	FallsOff *Block
	// Defers lists every defer statement in the body in syntactic
	// order, function literals included at their defer site.
	Defers []*ast.DeferStmt
}

// Block is one basic block: a maximal run of straight-line nodes.
// Nodes holds simple statements (assignments, calls, returns, ...) and
// the control expressions evaluated in this block (if/for conditions,
// switch tags, range operands) in execution order.
type Block struct {
	Index int
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// cfgLabel tracks one declared label and the branch targets of the
// statement it labels.
type cfgLabel struct {
	start     *Block // goto target
	breakB    *Block // break <label> target (loops, switch, select)
	continueB *Block // continue <label> target (loops only)
}

type cfgBuilder struct {
	g        *CFG
	cur      *Block // nil after a terminator until the next block opens
	breakTo  *Block
	contTo   *Block
	fallTo   *Block // next case-clause body, inside a switch clause
	labels   map[string]*cfgLabel
	gotos    []pendingGoto
	curLabel *cfgLabel // label awaiting its loop/switch targets
	term     func(*ast.CallExpr) bool
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG lowers body to a CFG. termCall, when non-nil, reports
// whether a call expression never returns; the builtin panic is always
// recognized.
func BuildCFG(body *ast.BlockStmt, termCall func(*ast.CallExpr) bool) *CFG {
	b := &cfgBuilder{
		g:      &CFG{},
		labels: map[string]*cfgLabel{},
		term:   termCall,
	}
	entry := b.block("entry")
	exit := &Block{Kind: "exit"}
	b.g.Entry, b.g.Exit = entry, exit
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	if b.cur != nil {
		b.g.FallsOff = b.cur
		b.edge(b.cur, exit)
	}
	// Patch forward gotos to labels declared later in the body.
	for _, pg := range b.gotos {
		if l := b.labels[pg.label]; l != nil && l.start != nil {
			b.edge(pg.from, l.start)
		}
	}
	exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, exit)
	return b.g
}

func (b *cfgBuilder) block(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block, opening an unreachable
// block when control cannot reach here (code after return/panic).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.block("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// jump ends the current block with an edge to target.
func (b *cfgBuilder) jump(to *Block) {
	if b.cur != nil {
		b.edge(b.cur, to)
	}
	b.cur = nil
}

// open starts a new block reachable from the current one.
func (b *cfgBuilder) open(kind string) *Block {
	blk := b.block(kind)
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label (set by LabeledStmt) so the
// labeled loop/switch can register its break/continue targets.
func (b *cfgBuilder) takeLabel() *cfgLabel {
	l := b.curLabel
	b.curLabel = nil
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Cond)
		cond := b.cur
		join := b.block("if.join")
		then := b.block("if.then")
		b.edge(cond, then)
		var elseB *Block
		if s.Else != nil {
			elseB = b.block("if.else")
			b.edge(cond, elseB)
		} else {
			b.edge(cond, join)
		}
		b.cur = then
		b.stmtList(s.Body.List)
		b.jump(join)
		if s.Else != nil {
			b.cur = elseB
			b.stmt(s.Else)
			b.jump(join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.open("for.head")
		if s.Cond != nil {
			b.add(s.Cond)
		}
		exit := b.block("for.exit")
		body := b.block("for.body")
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, exit)
		}
		contTarget := head
		var post *Block
		if s.Post != nil {
			post = b.block("for.post")
			contTarget = post
		}
		if label != nil {
			label.breakB, label.continueB = exit, contTarget
		}
		savedB, savedC := b.breakTo, b.contTo
		b.breakTo, b.contTo = exit, contTarget
		b.cur = body
		b.stmtList(s.Body.List)
		b.breakTo, b.contTo = savedB, savedC
		if post != nil {
			b.jump(post)
			b.cur = post
			b.stmt(s.Post)
			b.jump(head)
		} else {
			b.jump(head)
		}
		b.cur = exit

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.open("range.head")
		b.add(s.X)
		exit := b.block("range.exit")
		body := b.block("range.body")
		b.edge(head, body)
		b.edge(head, exit)
		if label != nil {
			label.breakB, label.continueB = exit, head
		}
		savedB, savedC := b.breakTo, b.contTo
		b.breakTo, b.contTo = exit, head
		b.cur = body
		b.stmtList(s.Body.List)
		b.breakTo, b.contTo = savedB, savedC
		b.jump(head)
		b.cur = exit

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(s.Body.List, label, "case")

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(s.Body.List, label, "typecase")

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.open("select.head")
		exit := b.block("select.exit")
		if label != nil {
			label.breakB = exit
		}
		savedB := b.breakTo
		b.breakTo = exit
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			kind := "select.case"
			if cc.Comm == nil {
				kind = "select.default"
			}
			blk := b.block(kind)
			b.edge(head, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.jump(exit)
		}
		b.breakTo = savedB
		// select{} with no clauses blocks forever: exit unreachable.
		b.cur = exit

	case *ast.LabeledStmt:
		start := b.open("label." + s.Label.Name)
		l := &cfgLabel{start: start}
		b.labels[s.Label.Name] = l
		b.curLabel = l
		b.stmt(s.Stmt)
		b.curLabel = nil

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			target := b.breakTo
			if s.Label != nil {
				if l := b.labels[s.Label.Name]; l != nil {
					target = l.breakB
				}
			}
			b.jump(target)
		case token.CONTINUE:
			target := b.contTo
			if s.Label != nil {
				if l := b.labels[s.Label.Name]; l != nil {
					target = l.continueB
				}
			}
			b.jump(target)
		case token.GOTO:
			if s.Label != nil {
				if l := b.labels[s.Label.Name]; l != nil && l.start != nil {
					b.jump(l.start)
				} else {
					from := b.cur
					if from != nil {
						b.gotos = append(b.gotos, pendingGoto{from: from, label: s.Label.Name})
					}
					b.cur = nil
				}
			}
		case token.FALLTHROUGH:
			b.jump(b.fallTo)
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.terminating(call) {
			b.jump(b.g.Exit)
		}

	case *ast.EmptyStmt:
		// no node

	default:
		// AssignStmt, IncDecStmt, SendStmt, GoStmt, DeclStmt, ...
		b.add(s)
	}
}

// switchClauses lowers the shared clause structure of expression and
// type switches: every clause body is a successor of the head block,
// fallthrough chains to the next body, and a missing default adds a
// head->exit edge.
func (b *cfgBuilder) switchClauses(clauses []ast.Stmt, label *cfgLabel, kind string) {
	head := b.cur
	if head == nil {
		head = b.block("unreachable")
		b.cur = head
	}
	exit := b.block("switch.exit")
	if label != nil {
		label.breakB = exit
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		k := kind
		if cc.List == nil {
			k = kind + ".default"
			hasDefault = true
		}
		bodies[i] = b.block(k)
		b.edge(head, bodies[i])
	}
	if !hasDefault {
		b.edge(head, exit)
	}
	savedB, savedF := b.breakTo, b.fallTo
	b.breakTo = exit
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.fallTo = nil
		if i+1 < len(bodies) {
			b.fallTo = bodies[i+1]
		}
		b.cur = bodies[i]
		b.stmtList(cc.Body)
		b.jump(exit)
	}
	b.breakTo, b.fallTo = savedB, savedF
	b.cur = exit
}

func (b *cfgBuilder) terminating(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	return b.term != nil && b.term(call)
}
