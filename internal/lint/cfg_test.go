package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"strings"
	"testing"
)

// parseFunc parses "package p\n\n"+src and returns the declaration of
// func f plus the fileset (no type checking: BuildCFG is syntactic).
func parseFunc(t *testing.T, src string) (*token.FileSet, *ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "cfg_fixture.go", "package p\n\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse CFG fixture: %v\n%s", err, src)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "f" {
			return fset, fd
		}
	}
	t.Fatalf("no func f in fixture:\n%s", src)
	return nil, nil
}

// TestCFGExitInvariants checks the builder's structural invariants:
// one exit block with no successors, FallsOff set
// exactly when the body can run off the closing brace, and defers
// recorded in syntactic order.
func TestCFGExitInvariants(t *testing.T) {
	_, fd := parseFunc(t, `func f(c bool) {
	defer first()
	if c {
		defer second()
		return
	}
}`)
	g := BuildCFG(fd.Body, nil)
	if len(g.Exit.Succs) != 0 {
		t.Errorf("exit block has successors: %v", g.Exit.Succs)
	}
	if len(g.Exit.Nodes) != 0 {
		t.Errorf("exit block holds nodes: %v", g.Exit.Nodes)
	}
	if g.FallsOff == nil {
		t.Error("body without a final return must set FallsOff")
	}
	if len(g.Defers) != 2 {
		t.Fatalf("got %d defers, want 2", len(g.Defers))
	}
	if g.Defers[0].Pos() > g.Defers[1].Pos() {
		t.Error("defers not in syntactic order")
	}

	_, fd = parseFunc(t, `func f() int { return 1 }`)
	if g := BuildCFG(fd.Body, nil); g.FallsOff != nil {
		t.Error("body ending in return on every path must not set FallsOff")
	}
}

// --- statement-partition property --------------------------------------

// leafStmts collects the statements the builder must place into blocks:
// every non-container statement, recursing through the control
// statements' structure exactly as the builder does (init/post clauses
// are leaves, labeled statements unwrap, empty statements vanish).
func leafStmts(list []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	var walk func(s ast.Stmt)
	walkList := func(l []ast.Stmt) {
		for _, s := range l {
			walk(s)
		}
	}
	walk = func(s ast.Stmt) {
		switch s := s.(type) {
		case *ast.BlockStmt:
			walkList(s.List)
		case *ast.IfStmt:
			if s.Init != nil {
				walk(s.Init)
			}
			walkList(s.Body.List)
			if s.Else != nil {
				walk(s.Else)
			}
		case *ast.ForStmt:
			if s.Init != nil {
				walk(s.Init)
			}
			walkList(s.Body.List)
			if s.Post != nil {
				walk(s.Post)
			}
		case *ast.RangeStmt:
			walkList(s.Body.List)
		case *ast.SwitchStmt:
			if s.Init != nil {
				walk(s.Init)
			}
			for _, c := range s.Body.List {
				walkList(c.(*ast.CaseClause).Body)
			}
		case *ast.TypeSwitchStmt:
			if s.Init != nil {
				walk(s.Init)
			}
			out = append(out, s.Assign) // evaluated as the switch head node
			for _, c := range s.Body.List {
				walkList(c.(*ast.CaseClause).Body)
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				cc := c.(*ast.CommClause)
				if cc.Comm != nil {
					walk(cc.Comm)
				}
				walkList(cc.Body)
			}
		case *ast.LabeledStmt:
			walk(s.Stmt)
		case *ast.EmptyStmt:
			// dropped by the builder
		default:
			out = append(out, s)
		}
	}
	walkList(list)
	return out
}

// checkStmtPartition asserts every leaf statement of the body lands in
// exactly one block's node list, exactly once.
func checkStmtPartition(t *testing.T, src string, fset *token.FileSet, fd *ast.FuncDecl) {
	t.Helper()
	g := BuildCFG(fd.Body, nil)
	placed := map[ast.Stmt]int{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if s, ok := n.(ast.Stmt); ok {
				placed[s]++
			}
		}
	}
	for _, s := range leafStmts(fd.Body.List) {
		switch placed[s] {
		case 1:
			// exactly once: the invariant
		case 0:
			t.Errorf("statement at %s missing from every block:\n%s",
				fset.Position(s.Pos()), src)
		default:
			t.Errorf("statement at %s placed in %d blocks:\n%s",
				fset.Position(s.Pos()), placed[s], src)
		}
	}
	// No node (statement or control expression) may repeat either.
	nodes := map[ast.Node]int{}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			nodes[n]++
			if nodes[n] > 1 {
				t.Errorf("node at %s appears in multiple blocks:\n%s",
					fset.Position(n.Pos()), src)
			}
		}
	}
}

// stmtGen emits pseudo-random syntactically valid function bodies. The
// seed is fixed: the corpus is deterministic across runs.
type stmtGen struct {
	r     *rand.Rand
	depth int
}

func (g *stmtGen) stmts(n int, inLoop bool) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		sb.WriteString(g.stmt(inLoop))
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (g *stmtGen) stmt(inLoop bool) string {
	if g.depth >= 3 {
		return "x++"
	}
	max := 7
	if !inLoop {
		max = 5 // break/continue only inside loops
	}
	switch g.r.Intn(max) {
	case 0:
		return "x++"
	case 1:
		g.depth++
		defer func() { g.depth-- }()
		s := fmt.Sprintf("if x > %d {\n%s}", g.r.Intn(10), g.stmts(1+g.r.Intn(2), inLoop))
		if g.r.Intn(2) == 0 {
			s += fmt.Sprintf(" else {\n%s}", g.stmts(1+g.r.Intn(2), inLoop))
		}
		return s
	case 2:
		g.depth++
		defer func() { g.depth-- }()
		return fmt.Sprintf("for i := 0; i < %d; i++ {\n%s}", 2+g.r.Intn(5), g.stmts(1+g.r.Intn(3), true))
	case 3:
		g.depth++
		defer func() { g.depth-- }()
		return fmt.Sprintf("switch x %% 3 {\ncase 0:\n%scase 1:\n%sdefault:\n%s}",
			g.stmts(1, inLoop), g.stmts(1, inLoop), g.stmts(1, inLoop))
	case 4:
		return "return x"
	case 5:
		return "break"
	default:
		return "continue"
	}
}

// TestCFGStatementPartitionProperty runs the partition invariant over
// the golden shapes plus a generated corpus: whatever the control
// structure, no statement is lost and none is duplicated.
func TestCFGStatementPartitionProperty(t *testing.T) {
	hand := []string{
		`func f(c bool) int {
	x := 0
	if c {
		x = 1
	} else {
		x = 2
	}
	return x
}`,
		`func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i == 3 {
			continue
		}
		s += i
	}
	return s
}`,
		`func f(k int) int {
	switch k {
	case 1:
		k++
		fallthrough
	default:
		k--
	}
	return k
}`,
		`func f() int {
	return 1
	x := 2
	return x
}`,
	}
	for i, src := range hand {
		fset, fd := parseFunc(t, src)
		t.Run(fmt.Sprintf("hand_%d", i), func(t *testing.T) {
			checkStmtPartition(t, src, fset, fd)
		})
	}

	gen := &stmtGen{r: rand.New(rand.NewSource(1))}
	for i := 0; i < 80; i++ {
		src := "func f(x int) int {\n" + gen.stmts(3+gen.r.Intn(6), false) + "return x\n}"
		fset, fd := parseFunc(t, src)
		t.Run(fmt.Sprintf("gen_%d", i), func(t *testing.T) {
			checkStmtPartition(t, src, fset, fd)
		})
	}
}
