package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetFlow is an interprocedural determinism-taint analysis over the
// Run's call graph. A hot path that reaches the process-global rand
// source or the wall clock — directly, through a helper in the same
// package, or through another package — replays differently on every
// run and silently breaks the bit-reproducibility the paper's
// provenance and re-execution guarantees rest on.
//
// Taint sources (per function, direct):
//   - calls through math/rand's (or v2's) package-level global source;
//     constructing a seeded generator (rand.New, rand.NewSource, ...)
//     is the approved pattern and is not a source;
//   - time.Now();
//   - ranging over a map while appending to a slice or sending on a
//     channel (order-sensitive accumulation), unless the function also
//     sorts afterwards (sort.* / slices.Sort*) — the sorted-key idiom
//     sanitizes the iteration.
//
// Taint propagates from callee to caller along static call edges;
// methods on an injected *rand.Rand are never sources, so seeding a
// local generator sanitizes a subtree. Findings:
//   - in deterministic hot packages, every direct global-rand or
//     time.Now call site;
//   - in hot packages and in any function that writes provenance rows,
//     every call to a module function with transitive taint, with the
//     full call chain down to the source.
//
// Dynamic dispatch (interface methods, function values) is invisible
// to the static call graph. Test files are exempt.
var DetFlow = &Analyzer{
	Name: "detflow",
	Doc:  "interprocedural taint: nondeterminism (global rand, wall clock, map order) reaching hot paths or provenance writes",
	Run:  runDetFlow,
}

// detFlowHotPaths are import-path fragments marking the packages where
// determinism is load-bearing: the search kernels, the dataflow engine,
// the scheduler and grid generation (Spec-deterministic slab
// decomposition).
var detFlowHotPaths = []string{
	"internal/dock",
	"internal/engine",
	"internal/grid",
	"internal/sched",
}

// randConstructors are the math/rand package-level functions that
// build explicit generators rather than touching the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// taintInfo explains why one function is tainted.
type taintInfo struct {
	what string    // human description of the root source
	pos  token.Pos // position of the root source
	via  string    // callee key the taint arrived through ("" at the root)
	hops int       // distance from the root source
}

// detState is the per-Run taint computation.
type detState struct {
	cg      *callGraph
	tainted map[string]*taintInfo
	sinks   map[string]bool // funcs that write provenance rows
}

// detStateFor returns the per-Run taint state, computing it on first
// use.
func (p *Pass) detStateFor() *detState {
	if p.shared.det == nil {
		p.shared.det = computeDetState(p.CallGraphFor())
	}
	return p.shared.det
}

func runDetFlow(pass *Pass) {
	st := pass.detStateFor()

	hot := false
	for _, frag := range detFlowHotPaths {
		if strings.Contains(pass.Path, frag) {
			hot = true
			break
		}
	}

	if hot {
		pass.Inspect(func(n ast.Node, _ []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok || pass.IsTestFile(call.Pos()) {
				return
			}
			if what, ok := sourceCall(pass.Package, call); ok {
				pass.Reportf(call.Pos(),
					"nondeterminism in deterministic hot path: this call %s; thread an injected seeded *rand.Rand or clock instead", what)
			}
		})
	}

	for _, node := range st.cg.nodes {
		if node.pkg != pass.Package || node.testOnly {
			continue
		}
		if !hot && !st.sinks[node.key] {
			continue
		}
		reported := map[string]bool{}
		for _, e := range node.edges {
			if st.tainted[e.to] == nil || reported[e.to] {
				continue // one finding per distinct tainted callee per caller
			}
			reported[e.to] = true
			where := "deterministic hot path"
			if !hot {
				where = "provenance-writing function"
			}
			pass.Reportf(e.pos,
				"nondeterminism reaches %s: %s; seed a *rand.Rand (or sort map keys) at the source",
				where, st.chain(e.to))
		}
	}
}

// chain renders "pkg.f, which calls pkg.g, which <source>" starting at
// the tainted callee key.
func (st *detState) chain(key string) string {
	var sb strings.Builder
	sb.WriteString("call to " + shortKey(key))
	for hops := 0; ; hops++ {
		ti := st.tainted[key]
		if ti == nil {
			break
		}
		if ti.via == "" {
			fmt.Fprintf(&sb, ", which %s", ti.what)
			break
		}
		if hops >= 4 {
			sb.WriteString(", which calls further nondeterministic helpers")
			break
		}
		fmt.Fprintf(&sb, ", which calls %s", shortKey(ti.via))
		key = ti.via
	}
	return sb.String()
}

// shortKey trims the module prefix from a canonical key for readable
// messages: "repro/internal/engine.jitter" -> "engine.jitter".
func shortKey(key string) string {
	slash := strings.LastIndexByte(key, '/')
	if slash < 0 {
		return key
	}
	return key[slash+1:]
}

// computeDetState finds direct sources and sinks per function, then
// propagates taint from callees to callers to fixpoint (reverse BFS).
func computeDetState(cg *callGraph) *detState {
	st := &detState{
		cg:      cg,
		tainted: map[string]*taintInfo{},
		sinks:   map[string]bool{},
	}
	// callers[k] = nodes with an edge to k.
	callers := map[string][]*cgNode{}
	var frontier []string
	for key, node := range cg.nodes {
		for _, e := range node.edges {
			callers[e.to] = append(callers[e.to], node)
		}
		if what, pos, ok := directSource(node); ok {
			st.tainted[key] = &taintInfo{what: what, pos: pos}
			frontier = append(frontier, key)
		}
		if writesProvenance(node) {
			st.sinks[key] = true
		}
	}
	for len(frontier) > 0 {
		key := frontier[0]
		frontier = frontier[1:]
		ti := st.tainted[key]
		for _, caller := range callers[key] {
			if _, done := st.tainted[caller.key]; done {
				continue
			}
			st.tainted[caller.key] = &taintInfo{
				what: ti.what, pos: ti.pos, via: key, hops: ti.hops + 1,
			}
			frontier = append(frontier, caller.key)
		}
	}
	return st
}

// directSource reports the first direct nondeterminism source in a
// function body, if any.
func directSource(node *cgNode) (what string, pos token.Pos, ok bool) {
	pkg := node.pkg
	sortsAfter := callsSort(node)
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if w, isSrc := sourceCall(pkg, n); isSrc {
				what, pos, ok = w, n.Pos(), true
			}
		case *ast.RangeStmt:
			if t := pkg.TypeOf(n.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap && !sortsAfter &&
					orderSensitiveBody(n.Body) {
					what, pos, ok = "iterates a map in nondeterministic order into an ordered collection", n.Pos(), true
					return false
				}
			}
		}
		return true
	})
	return what, pos, ok
}

// sourceCall classifies one call as a direct nondeterminism source: a
// draw from math/rand's process-global source, or time.Now.
func sourceCall(pkg *Package, call *ast.CallExpr) (what string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	id, isId := sel.X.(*ast.Ident)
	if !isId {
		return "", false
	}
	pn, isPkg := pkg.Info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", false // method call, e.g. on an injected *rand.Rand: sanitized
	}
	switch pn.Imported().Path() {
	case "math/rand", "math/rand/v2":
		if !randConstructors[sel.Sel.Name] {
			return "draws from the math/rand global source (rand." + sel.Sel.Name + ")", true
		}
	case "time":
		if sel.Sel.Name == "Now" {
			return "reads the wall clock (time.Now)", true
		}
	}
	return "", false
}

// callsSort reports whether the function calls sort.* or
// slices.Sort* anywhere — the sorted-key-iteration sanitizer.
func callsSort(node *cgNode) bool {
	found := false
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := node.pkg.Info.Uses[id].(*types.PkgName); ok {
			switch pn.Imported().Path() {
			case "sort":
				found = true
			case "slices":
				if strings.HasPrefix(sel.Sel.Name, "Sort") {
					found = true
				}
			}
		}
		return true
	})
	return found
}

// orderSensitiveBody reports whether a range body accumulates in
// iteration order: appends to a slice or sends on a channel. Pure
// set/count/max folds over a map are order-insensitive and stay clean.
func orderSensitiveBody(body *ast.BlockStmt) bool {
	sensitive := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sensitive {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			sensitive = true
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				sensitive = true
			}
		}
		return true
	})
	return sensitive
}

// writesProvenance reports whether the function inserts or mutates
// provenance rows (prov.DB / prov.Appender write methods).
func writesProvenance(node *cgNode) bool {
	for _, e := range node.edges {
		i := strings.LastIndexByte(e.to, '.')
		if i < 0 {
			continue
		}
		rest := e.to[:i]
		name := e.to[i+1:]
		j := strings.LastIndexByte(rest, '.')
		if j < 0 {
			continue
		}
		path, recv := rest[:j], rest[j+1:]
		if !strings.HasSuffix(path, "internal/prov") || (recv != "DB" && recv != "Appender") {
			continue
		}
		for _, prefix := range []string{"Insert", "Begin", "Close", "Update"} {
			if strings.HasPrefix(name, prefix) {
				return true
			}
		}
	}
	return false
}
