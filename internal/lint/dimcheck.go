package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DimCheck infers physical units for float expressions and flags
// dimensional mixups — above all the r-vs-r² confusion the r²-indexed
// kernel tables made possible: Radial.At2 takes a squared distance,
// and feeding it a plain Å distance is a silent, physically-plausible
// wrong answer. The unit lattice is small and domain-specific:
//
//	Å (distance) · Å² (squared distance) · kcal/mol (energy)
//	e (charge) · dimensionless · unknown
//
// Units are seeded two ways: a built-in table of the core kernel API
// (tables.Radial.At2, chem.Vec3.Dist/Dist2/Norm/Norm2, the tables
// cutoff constants), and //unit: annotations collected from every
// loaded package's declarations:
//
//	//unit: r=Å result=kcal/mol     (function doc: params by name)
//	//unit: Å2                      (var/const decl: one unit for all)
//
// Accepted unit spellings: Å/A/angstrom, Å2/Å²/A2, kcal/mol, e/charge,
// 1/none/dimensionless. Within each function a forward dataflow over
// the CFG tracks per-variable units through assignments; multiplying
// two Å values yields Å², dividing Å² by Å yields Å, math.Sqrt of Å²
// yields Å, and untyped literals stay unit-agnostic. Findings:
//
//   - error: an argument with a known unit passed to a parameter
//     declared with a different unit (the r/r² table-lookup check);
//   - error: + or - (or a comparison) mixing two known, different
//     units — e.g. comparing an Å² value against the Å cutoff;
//   - error: returning a value whose unit contradicts the function's
//     declared result unit.
//
// Expressions with any unknown operand stay silent, so unannotated
// code produces no noise. Test files are exempt.
var DimCheck = &Analyzer{
	Name:     "dimcheck",
	Doc:      "unit-inference lattice (Å, Å², kcal/mol, e): flags r-vs-r² mixups at table lookups and unit-mixing arithmetic",
	Severity: Error,
	Run:      runDimCheck,
}

// unit is one element of the dimension lattice.
type unit uint8

const (
	uUnknown unit = iota
	uScalar       // explicitly dimensionless
	uAngstrom
	uAngstrom2
	uEnergy // kcal/mol
	uCharge // elementary charge
)

func (u unit) String() string {
	switch u {
	case uScalar:
		return "dimensionless"
	case uAngstrom:
		return "Å"
	case uAngstrom2:
		return "Å²"
	case uEnergy:
		return "kcal/mol"
	case uCharge:
		return "e"
	}
	return "unknown"
}

// parseUnit maps an annotation spelling to a lattice element.
func parseUnit(s string) (unit, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "å", "a", "ang", "angstrom":
		return uAngstrom, true
	case "å2", "å²", "a2", "ang2", "angstrom2":
		return uAngstrom2, true
	case "kcal/mol", "kcalmol", "energy":
		return uEnergy, true
	case "e", "charge":
		return uCharge, true
	case "1", "none", "dimensionless", "scalar":
		return uScalar, true
	}
	return uUnknown, false
}

// dimSig declares the units of one function's parameters and result.
type dimSig struct {
	params map[string]unit // by parameter name
	result unit
}

// dimSeeds is the per-Run unit environment: function signatures and
// package-level var/const units, keyed canonically so seeds survive
// the loader's target/dependency double instantiation.
type dimSeeds struct {
	funcs map[string]*dimSig
	vars  map[string]unit // "pkgpath.Name"
}

// builtinDimSeeds covers the core kernel API so a subset run (e.g.
// scilint ./internal/grid) still catches r/r² mixups at table lookups
// even when the annotated tables package is not among the targets.
func builtinDimSeeds() *dimSeeds {
	const tables = "repro/internal/dock/tables"
	const chem = "repro/internal/chem"
	return &dimSeeds{
		funcs: map[string]*dimSig{
			tables + ".Radial.At2": {params: map[string]unit{"r2": uAngstrom2}},
			tables + ".PairEnergy": {params: map[string]unit{"r": uAngstrom}, result: uEnergy},
			tables + ".PairEnergySmoothed": {
				params: map[string]unit{"r": uAngstrom, "smooth": uAngstrom}, result: uEnergy},
			tables + ".Dielectric": {params: map[string]unit{"r": uAngstrom}, result: uScalar},
			chem + ".Vec3.Dist":    {result: uAngstrom},
			chem + ".Vec3.Norm":    {result: uAngstrom},
			chem + ".Vec3.Dist2":   {result: uAngstrom2},
			chem + ".Vec3.Norm2":   {result: uAngstrom2},
		},
		vars: map[string]unit{
			tables + ".Cutoff":       uAngstrom,
			tables + ".SplitR2":      uAngstrom2,
			tables + ".RMin":         uAngstrom,
			tables + ".RMin2":        uAngstrom2,
			tables + ".SmoothRadius": uAngstrom,
		},
	}
}

// DimSeedsFor returns the Run's unit environment, collecting //unit:
// annotations from every loaded package on first use.
func (p *Pass) DimSeedsFor() *dimSeeds {
	if p.shared.dimSeeds == nil {
		p.shared.dimSeeds = collectDimSeeds(p.all)
	}
	return p.shared.dimSeeds
}

// unitDirective extracts the payload of a //unit: line in a comment
// group, or "".
func unitDirective(cg *ast.CommentGroup) string {
	payload, _ := docDirective(cg, "unit")
	return payload
}

// parseDimSig parses "r=Å r2=Å2 result=kcal/mol".
func parseDimSig(payload string) *dimSig {
	sig := &dimSig{params: map[string]unit{}}
	for _, field := range strings.Fields(payload) {
		name, val, ok := strings.Cut(field, "=")
		if !ok {
			continue
		}
		u, ok := parseUnit(val)
		if !ok {
			continue
		}
		if name == "result" {
			sig.result = u
		} else {
			sig.params[name] = u
		}
	}
	if len(sig.params) == 0 && sig.result == uUnknown {
		return nil
	}
	return sig
}

func collectDimSeeds(pkgs []*Package) *dimSeeds {
	seeds := builtinDimSeeds()
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					payload := unitDirective(d.Doc)
					if payload == "" {
						continue
					}
					sig := parseDimSig(payload)
					if sig == nil {
						continue
					}
					if def, ok := pkg.Info.Defs[d.Name].(*types.Func); ok {
						seeds.funcs[funcKey(def)] = sig
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR && d.Tok != token.CONST {
						continue
					}
					declUnit, declOK := parseUnit(unitDirective(d.Doc))
					for _, spec := range d.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						u, ok := declUnit, declOK
						if payload := unitDirective(vs.Doc); payload != "" {
							u, ok = parseUnit(payload)
						} else if payload := unitDirective(vs.Comment); payload != "" {
							u, ok = parseUnit(payload)
						}
						if !ok {
							continue
						}
						for _, name := range vs.Names {
							if obj := pkg.Info.Defs[name]; obj != nil && obj.Pkg() != nil {
								seeds.vars[obj.Pkg().Path()+"."+obj.Name()] = u
							}
						}
					}
				}
			}
		}
	}
	return seeds
}

// --- per-function inference ------------------------------------------

// dimFact maps float-typed local objects to units.
type dimFact map[types.Object]unit

func (f dimFact) clone() dimFact {
	out := make(dimFact, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// dimProblem is the FlowProblem for one function body.
type dimProblem struct {
	pass   *Pass
	seeds  *dimSeeds
	entry  dimFact
	curSig *dimSig // the analyzed function's own declared units
	// report, when non-nil, receives findings during the replay pass.
	report func(pos token.Pos, format string, args ...any)
}

func (dp *dimProblem) EntryFact() Fact { return dp.entry }

func (dp *dimProblem) Transfer(b *Block, in Fact) Fact {
	f := in.(dimFact).clone()
	for _, n := range b.Nodes {
		dp.transferNode(n, f)
	}
	return f
}

func (dp *dimProblem) Merge(a, b Fact) Fact {
	fa, fb := a.(dimFact), b.(dimFact)
	out := make(dimFact, len(fa))
	for k, va := range fa {
		if vb, ok := fb[k]; ok && va == vb {
			out[k] = va
		}
	}
	return out
}

func (dp *dimProblem) Equal(a, b Fact) bool {
	fa, fb := a.(dimFact), b.(dimFact)
	if len(fa) != len(fb) {
		return false
	}
	for k, va := range fa {
		if vb, ok := fb[k]; !ok || va != vb {
			return false
		}
	}
	return true
}

// transferNode updates the fact for assignments in one node and, in
// reporting mode, checks every expression in it.
func (dp *dimProblem) transferNode(n ast.Node, f dimFact) {
	switch s := n.(type) {
	case *ast.AssignStmt:
		dp.checkNodeExprs(s.Rhs, f)
		if len(s.Lhs) == len(s.Rhs) {
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := dp.objOf(id)
				if obj == nil || !isFloatObj(obj) {
					continue
				}
				switch s.Tok {
				case token.ASSIGN, token.DEFINE:
					f[obj] = dp.unitOf(s.Rhs[i], f)
				case token.ADD_ASSIGN, token.SUB_ASSIGN:
					ru := dp.unitOf(s.Rhs[i], f)
					lu := f[obj]
					if dp.report != nil && lu > uScalar && ru > uScalar && lu != ru {
						dp.report(s.Pos(), "unit mismatch: %s (%s) %s a %s value",
							id.Name, lu, s.Tok, ru)
					}
				case token.MUL_ASSIGN:
					f[obj] = mulUnits(f[obj], dp.unitOf(s.Rhs[i], f))
				case token.QUO_ASSIGN:
					f[obj] = quoUnits(f[obj], dp.unitOf(s.Rhs[i], f))
				default:
					f[obj] = uUnknown
				}
			}
		} else {
			// multi-value call: units unknown
			for _, lhs := range s.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := dp.objOf(id); obj != nil {
						delete(f, obj)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		dp.checkNodeExprs(s.Results, f)
		dp.checkReturn(s, f)
	case ast.Expr:
		dp.checkExpr(s, f)
	case *ast.ExprStmt:
		dp.checkExpr(s.X, f)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
					dp.checkNodeExprs(vs.Values, f)
					for i, name := range vs.Names {
						obj := dp.pass.Info.Defs[name]
						if obj != nil && isFloatObj(obj) {
							f[obj] = dp.unitOf(vs.Values[i], f)
						}
					}
				}
			}
		}
	case *ast.IncDecStmt, *ast.SendStmt, *ast.GoStmt, *ast.DeferStmt:
		// no unit effects tracked
	}
}

func (dp *dimProblem) checkNodeExprs(exprs []ast.Expr, f dimFact) {
	if dp.report == nil {
		return
	}
	for _, e := range exprs {
		dp.checkExpr(e, f)
	}
}

// checkExpr computes an expression's unit; in reporting mode it also
// validates call arguments and mixed arithmetic inside it.
func (dp *dimProblem) checkExpr(e ast.Expr, f dimFact) unit {
	return dp.unitOf(e, f)
}

func (dp *dimProblem) objOf(id *ast.Ident) types.Object {
	if obj := dp.pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return dp.pass.Info.Defs[id]
}

func isFloatObj(obj types.Object) bool {
	return isFloatType(obj.Type())
}

func isFloatType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// mulUnits: Å·Å = Å², X·1 = X; other known products leave the lattice
// (legitimate physics) and go unknown.
func mulUnits(a, b unit) unit {
	switch {
	case a == uScalar:
		return b
	case b == uScalar:
		return a
	case a == uAngstrom && b == uAngstrom:
		return uAngstrom2
	}
	return uUnknown
}

// quoUnits: X/X = 1, Å²/Å = Å, X/1 = X.
func quoUnits(a, b unit) unit {
	switch {
	case a > uScalar && a == b:
		return uScalar
	case a == uAngstrom2 && b == uAngstrom:
		return uAngstrom
	case b == uScalar:
		return a
	}
	return uUnknown
}

// unitOf computes the unit of an expression under fact f, reporting
// conflicts when dp.report is set.
func (dp *dimProblem) unitOf(e ast.Expr, f dimFact) unit {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return dp.unitOf(e.X, f)
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return dp.unitOf(e.X, f)
		}
		return uUnknown
	case *ast.Ident:
		obj := dp.objOf(e)
		if obj == nil {
			return uUnknown
		}
		if u, ok := f[obj]; ok {
			return u
		}
		return dp.seeds.varUnit(obj)
	case *ast.SelectorExpr:
		// Package-level var/const through a package qualifier.
		if obj := dp.pass.Info.Uses[e.Sel]; obj != nil {
			switch obj.(type) {
			case *types.Var, *types.Const:
				return dp.seeds.varUnit(obj)
			}
		}
		return uUnknown
	case *ast.CallExpr:
		return dp.unitOfCall(e, f)
	case *ast.BinaryExpr:
		return dp.unitOfBinary(e, f)
	}
	return uUnknown
}

// varUnit looks up a package-level object's annotated unit.
func (s *dimSeeds) varUnit(obj types.Object) unit {
	if obj == nil || obj.Pkg() == nil {
		return uUnknown
	}
	return s.vars[obj.Pkg().Path()+"."+obj.Name()]
}

func (dp *dimProblem) unitOfBinary(e *ast.BinaryExpr, f dimFact) unit {
	lu := dp.unitOf(e.X, f)
	ru := dp.unitOf(e.Y, f)
	switch e.Op {
	case token.ADD, token.SUB:
		if lu > uScalar && ru > uScalar {
			if lu != ru && dp.report != nil {
				dp.report(e.OpPos, "unit mismatch: %s %s %s%s",
					lu, e.Op, ru, r2Hint(lu, ru))
			}
			if lu == ru {
				return lu
			}
			return uUnknown
		}
		if lu == ru {
			return lu
		}
		return uUnknown
	case token.MUL:
		return mulUnits(lu, ru)
	case token.QUO:
		return quoUnits(lu, ru)
	case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		if lu > uScalar && ru > uScalar && lu != ru && dp.report != nil {
			dp.report(e.OpPos, "unit mismatch in comparison: %s %s %s%s",
				lu, e.Op, ru, r2Hint(lu, ru))
		}
		return uUnknown
	}
	return uUnknown
}

// r2Hint appends the r-vs-r² nudge when the two units are Å and Å².
func r2Hint(a, b unit) string {
	if (a == uAngstrom && b == uAngstrom2) || (a == uAngstrom2 && b == uAngstrom) {
		return " (r vs r² mixup?)"
	}
	return ""
}

func (dp *dimProblem) unitOfCall(call *ast.CallExpr, f dimFact) unit {
	// Conversions: float64(x) keeps x's unit.
	if tv, ok := dp.pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return dp.unitOf(call.Args[0], f)
	}
	fn := dp.pass.calleeFunc(call)
	if fn == nil {
		for _, a := range call.Args {
			dp.unitOf(a, f) // still check subexpressions
		}
		return uUnknown
	}
	// math.Sqrt takes Å² back to Å.
	if pkgPathOf(fn) == "math" && fn.Name() == "Sqrt" && len(call.Args) == 1 {
		if dp.unitOf(call.Args[0], f) == uAngstrom2 {
			return uAngstrom
		}
		return uUnknown
	}
	sig := dp.seeds.funcs[funcKey(fn)]
	fsig, _ := fn.Type().(*types.Signature)
	if sig != nil && fsig != nil {
		params := fsig.Params()
		for i, arg := range call.Args {
			if i >= params.Len() {
				break // variadic tail: no declared unit
			}
			want, ok := sig.params[params.At(i).Name()]
			if !ok || want == uUnknown {
				dp.unitOf(arg, f)
				continue
			}
			got := dp.unitOf(arg, f)
			if got > uScalar && got != want && dp.report != nil {
				dp.report(arg.Pos(),
					"%s value passed to %s parameter %q of %s%s",
					got, want, params.At(i).Name(), fn.Name(), r2Hint(got, want))
			}
		}
		return sig.result
	}
	for _, a := range call.Args {
		dp.unitOf(a, f)
	}
	return uUnknown
}

// checkReturn validates the function's declared result unit.
func (dp *dimProblem) checkReturn(ret *ast.ReturnStmt, f dimFact) {
	if dp.report == nil || dp.curSig == nil || dp.curSig.result == uUnknown || len(ret.Results) != 1 {
		return
	}
	got := dp.unitOf(ret.Results[0], f)
	if got > uScalar && got != dp.curSig.result {
		dp.report(ret.Pos(), "returning %s value from a function declared to return %s%s",
			got, dp.curSig.result, r2Hint(got, dp.curSig.result))
	}
}

func runDimCheck(pass *Pass) {
	seeds := pass.DimSeedsFor()
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			checkDimFlow(pass, seeds, fd)
		}
	}
}

func checkDimFlow(pass *Pass, seeds *dimSeeds, fd *ast.FuncDecl) {
	def, _ := pass.Info.Defs[fd.Name].(*types.Func)
	ownSig := seeds.funcs[funcKey(def)]

	// Entry fact: parameters with declared units.
	entry := dimFact{}
	if ownSig != nil && fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if u, ok := ownSig.params[name.Name]; ok && u != uUnknown {
					if obj := pass.Info.Defs[name]; obj != nil && isFloatObj(obj) {
						entry[obj] = u
					}
				}
			}
		}
	}

	dp := &dimProblem{pass: pass, seeds: seeds, entry: entry, curSig: ownSig}
	g := pass.FuncCFG(fd)
	in := ForwardFlow(g, dp)

	// Replay with reporting enabled, deduplicating across blocks (a
	// condition expression re-checked through loop back-edges must
	// report once).
	seen := map[string]bool{}
	for _, b := range g.Blocks {
		inF, reachable := in[b]
		if !reachable {
			continue
		}
		f := inF.(dimFact).clone()
		dp.report = func(pos token.Pos, format string, args ...any) {
			k := pass.Fset.Position(pos).String() + format
			if !seen[k] {
				seen[k] = true
				pass.Reportf(pos, format, args...)
			}
		}
		for _, n := range b.Nodes {
			dp.transferNode(n, f)
		}
		dp.report = nil
	}
}
