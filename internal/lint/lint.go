// Package lint is scidock's domain-aware static-analysis engine: a
// small analyzer framework on the standard library's go/ast, go/parser,
// go/token and go/types (no external dependencies), plus the analyzers
// that mechanically enforce the invariants the paper's results depend
// on — deterministic scoring and provenance, seeded stochastic search,
// handled errors and tolerant float comparison.
//
// The cmd/scilint driver loads every package in the module, runs the
// registered analyzers over each typed package and reports diagnostics
// with file:line positions; every finding fails the gate. Findings can
// be suppressed at the source line with a recognized directive:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// placed on the flagged line or the line immediately above it. The
// reason is mandatory; a directive without one is ignored.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"position"`
	Message  string         `json:"message"`
}

// Analyzer is one self-contained check. Run inspects a typed package
// through the Pass and reports findings.
type Analyzer struct {
	// Name identifies the analyzer in output and ignore directives.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the analysis.
	Run func(*Pass)
}

// Pass couples one analyzer with one package for a single run.
type Pass struct {
	*Package
	analyzer *Analyzer
	diags    *[]Diagnostic
	// all is every package of this Run, for interprocedural analyzers
	// (detflow's call graph).
	all []*Package
	// shared is per-Run scratch shared across packages and analyzers;
	// expensive structures (call graph, taint state) are built once per
	// Run and memoized here.
	shared *runShared
}

// runShared caches per-Run interprocedural state. A Run is
// single-goroutine and owns its runShared, so no locking; concurrent
// Runs share nothing.
type runShared struct {
	callgraph *callGraph
	det       *detState
}

// Reportf records a finding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies every analyzer to every package and returns the
// suppression-filtered findings sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	shared := &runShared{}
	for _, pkg := range pkgs {
		for _, an := range analyzers {
			an.Run(&Pass{Package: pkg, analyzer: an, diags: &diags, all: pkgs, shared: shared})
		}
	}
	diags = filterIgnored(pkgs, diags)
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// --- shared type helpers ---------------------------------------------

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Package) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// TypeOf is a nil-tolerant Info.TypeOf.
func (p *Package) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// calleeFunc resolves the *types.Func a call statically dispatches to,
// or nil for dynamic calls, conversions and builtins.
func (p *Package) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// pkgPathOf returns the import path of the package an object belongs
// to, or "" for universe-scope objects.
func pkgPathOf(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// namedFrom unwraps pointers and aliases and returns the named type
// and its (package path, name), if t is a named type.
func namedFrom(t types.Type) (path, name string, ok bool) {
	if t == nil {
		return "", "", false
	}
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := types.Unalias(t).(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name(), true
	}
	return obj.Pkg().Path(), obj.Name(), true
}
