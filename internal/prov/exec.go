package prov

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is a query result set.
type Result struct {
	Columns []string
	Rows    [][]Value
}

// Query parses and executes a SQL statement against the database,
// taking a consistent snapshot so it can run while the workflow is
// still executing (runtime provenance queries, §IV.B).
func (db *DB) Query(sql string) (*Result, error) {
	q, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	tables, err := db.snapshot(q)
	if err != nil {
		return nil, err
	}
	return executePlanned(tables, q)
}

// boundTable is a zero-copy snapshot of one FROM entry.
type boundTable struct {
	alias string
	table *Table
	snap  tableSnap
}

// snapshot captures a consistent zero-copy view of every table the
// query references. A self-join binds both aliases to one capture.
func (db *DB) snapshot(q *query) ([]boundTable, error) {
	db.mu.RLock()
	tabs := make([]*Table, 0, len(q.From))
	for _, tr := range q.From {
		t, err := db.table(tr.Name)
		if err != nil {
			db.mu.RUnlock()
			return nil, err
		}
		tabs = append(tabs, t)
	}
	db.mu.RUnlock()
	snaps := captureTables(tabs)
	out := make([]boundTable, len(tabs))
	for i, t := range tabs {
		out[i] = boundTable{alias: strings.ToLower(q.From[i].Alias), table: t, snap: snaps[t]}
	}
	return out, nil
}

// env binds aliases to current rows during evaluation.
type env struct {
	tables []boundTable
	rows   []int // row id in tables[i].snap; -1 = unbound
}

func (e *env) lookup(ref colRef) (Value, error) {
	if ref.Table != "" {
		at := strings.ToLower(ref.Table)
		for i := range e.tables {
			bt := &e.tables[i]
			if bt.alias == at {
				if e.rows[i] < 0 {
					return nil, fmt.Errorf("prov: alias %q not bound", ref.Table)
				}
				ci := bt.table.ColumnIndex(ref.Col)
				if ci < 0 {
					return nil, fmt.Errorf("prov: column %q not in table %q", ref.Col, bt.table.Name)
				}
				return bt.snap.row(e.rows[i])[ci], nil
			}
		}
		return nil, fmt.Errorf("prov: unknown table alias %q", ref.Table)
	}
	found := -1
	var v Value
	for i := range e.tables {
		bt := &e.tables[i]
		ci := bt.table.ColumnIndex(ref.Col)
		if ci < 0 {
			continue
		}
		if found >= 0 {
			return nil, fmt.Errorf("prov: column %q is ambiguous", ref.Col)
		}
		found = i
		if e.rows[i] < 0 {
			return nil, fmt.Errorf("prov: column %q referenced before its table is bound", ref.Col)
		}
		v = bt.snap.row(e.rows[i])[ci]
	}
	if found < 0 {
		return nil, fmt.Errorf("prov: unknown column %q", ref.Col)
	}
	return v, nil
}

// aliasesOf returns the set of table aliases an expression references
// (empty string marks bare columns, resolvable once all tables bind).
func aliasesOf(e expr, out map[string]bool) {
	switch x := e.(type) {
	case colRef:
		out[strings.ToLower(x.Table)] = true
	case binExpr:
		aliasesOf(x.L, out)
		aliasesOf(x.R, out)
	case funcCall:
		for _, a := range x.Args {
			aliasesOf(a, out)
		}
	}
}

func boolAliases(b boolExpr, m map[string]bool) {
	switch x := b.(type) {
	case boolCond:
		aliasesOf(x.C.L, m)
		if x.C.R != nil {
			aliasesOf(x.C.R, m)
		}
		for _, e := range x.C.In {
			aliasesOf(e, m)
		}
	case boolAnd:
		boolAliases(x.L, m)
		boolAliases(x.R, m)
	case boolOr:
		boolAliases(x.L, m)
		boolAliases(x.R, m)
	case boolNot:
		boolAliases(x.E, m)
	}
}

// conjuncts flattens top-level ANDs so each conjunct can be pushed
// independently to the join depth where its aliases bind.
func conjuncts(b boolExpr) []boolExpr {
	if b == nil {
		return nil
	}
	if a, ok := b.(boolAnd); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []boolExpr{b}
}

// assignConjuncts performs predicate pushdown: a conjunct fires at the
// first join depth where all its aliases are bound.
func assignConjuncts(tables []boundTable, q *query) [][]boolExpr {
	condAt := make([][]boolExpr, len(tables))
	for _, c := range conjuncts(q.Where) {
		need := map[string]bool{}
		boolAliases(c, need)
		depth := len(tables) - 1
		if !need[""] { // bare columns need everything bound
			depth = 0
			for d := range tables {
				if need[tables[d].alias] && d > depth {
					depth = d
				}
			}
		}
		condAt[depth] = append(condAt[depth], c)
	}
	return condAt
}

// resolveRef resolves a column reference to (table index, column
// index) using the same alias/bare-column rules as env.lookup, minus
// the binding checks. Ambiguous or unknown references report !ok — the
// planner then simply doesn't use the reference as an index probe and
// the runtime evaluation surfaces the error, as a scan would.
func resolveRef(tables []boundTable, ref colRef) (ti, ci int, ok bool) {
	if ref.Table != "" {
		at := strings.ToLower(ref.Table)
		for i := range tables {
			if tables[i].alias != at {
				continue
			}
			c := tables[i].table.ColumnIndex(ref.Col)
			if c < 0 {
				return 0, 0, false
			}
			return i, c, true
		}
		return 0, 0, false
	}
	found, fc := -1, -1
	for i := range tables {
		c := tables[i].table.ColumnIndex(ref.Col)
		if c < 0 {
			continue
		}
		if found >= 0 {
			return 0, 0, false
		}
		found, fc = i, c
	}
	if found < 0 {
		return 0, 0, false
	}
	return found, fc, true
}

// planSeed is an index probe for one join depth: instead of scanning
// the whole table, enumerate only the rows whose indexed column ci
// equals the probe value (a literal, or a column of an earlier-bound
// table — a hash equi-join).
type planSeed struct {
	ok    bool
	ci    int
	lit   Value // literal probe (litOK)
	litOK bool
	srcT  int // earlier-bound table supplying the probe value (!litOK)
	srcC  int
}

// planSeeds picks at most one index seed per depth. Only the FIRST
// conjunct at a depth is eligible: for a row the index filters out,
// a full scan would have evaluated nothing but that one equality
// (which cannot error) before rejecting the row, so skipping it can
// never change error behavior. All conjuncts — including the
// seed — remain as residual filters, so a seed can only ever shrink
// the scan, never change the result.
func planSeeds(tables []boundTable, condAt [][]boolExpr) []planSeed {
	seeds := make([]planSeed, len(tables))
	for d := range tables {
		if len(condAt[d]) == 0 {
			continue
		}
		bc, ok := condAt[d][0].(boolCond)
		if !ok || bc.C.Op != "=" || bc.C.Neg {
			continue
		}
		if s, ok := trySeed(tables, d, bc.C.L, bc.C.R); ok {
			seeds[d] = s
			continue
		}
		if s, ok := trySeed(tables, d, bc.C.R, bc.C.L); ok {
			seeds[d] = s
		}
	}
	return seeds
}

// trySeed checks one orientation of an equality conjunct: probe must
// be an indexed column of depth-d's table, val a literal or a column
// bound strictly earlier.
func trySeed(tables []boundTable, d int, probe, val expr) (planSeed, bool) {
	ref, ok := probe.(colRef)
	if !ok {
		return planSeed{}, false
	}
	ti, ci, ok := resolveRef(tables, ref)
	if !ok || ti != d || !tables[d].snap.hasIndex(ci) {
		return planSeed{}, false
	}
	switch v := val.(type) {
	case litNum:
		return planSeed{ok: true, ci: ci, lit: v.V, litOK: true}, true
	case litStr:
		return planSeed{ok: true, ci: ci, lit: v.V, litOK: true}, true
	case colRef:
		sti, sci, ok := resolveRef(tables, v)
		if !ok || sti >= d {
			return planSeed{}, false
		}
		return planSeed{ok: true, ci: ci, srcT: sti, srcC: sci}, true
	}
	return planSeed{}, false
}

// executePlanned is the query executor. It joins the FROM tables in
// order with each conjunct pushed to the depth where its aliases bind,
// but each depth may enumerate index candidates instead of the full
// table, and combinations stream into a sink instead of being
// materialized. Candidates are sorted ascending, so output row order
// is the scan order: the reference executor the tests hold it to
// agrees row for row.
func executePlanned(tables []boundTable, q *query) (*Result, error) {
	e := &env{tables: tables, rows: make([]int, len(tables))}
	for i := range e.rows {
		e.rows[i] = -1
	}
	condAt := assignConjuncts(tables, q)
	seeds := planSeeds(tables, condAt)

	grouped := len(q.GroupBy) > 0
	if !grouped {
		for _, it := range q.Select {
			if hasAggregate(it.Expr) {
				grouped = true
				break
			}
		}
	}

	res := &Result{}
	for _, it := range q.Select {
		res.Columns = append(res.Columns, it.Alias)
	}

	// sink consumes one fully-bound combination (true = stop early);
	// finish returns the output rows once enumeration completes.
	var sink func() (bool, error)
	var finish func() ([]outRow, error)
	if grouped {
		sink, finish = groupedSink(e, q)
	} else {
		sink, finish = rowSink(e, q)
	}

	bufs := make([][]int, len(tables))
	var recurse func(depth int) (bool, error)
	recurse = func(depth int) (bool, error) {
		if depth == len(tables) {
			return sink()
		}
		// Candidate rows for this depth: index probe when a seed
		// applies and the index is still snapshot-valid, full scan
		// otherwise.
		var cand []int
		useIdx := false
		if s := seeds[depth]; s.ok {
			key := s.lit
			if !s.litOK {
				key = tables[s.srcT].snap.row(e.rows[s.srcT])[s.srcC]
			}
			if ids, ok := tables[depth].snap.lookupAppend(bufs[depth][:0], s.ci, key); ok {
				sort.Ints(ids)
				bufs[depth] = ids
				cand, useIdx = ids, true
			}
		}
		total := tables[depth].snap.n
		if useIdx {
			total = len(cand)
		}
		for k := 0; k < total; k++ {
			ri := k
			if useIdx {
				ri = cand[k]
			}
			e.rows[depth] = ri
			ok := true
			for _, c := range condAt[depth] {
				pass, err := evalBool(e, c)
				if err != nil {
					return false, err
				}
				if !pass {
					ok = false
					break
				}
			}
			if ok {
				if stop, err := recurse(depth + 1); err != nil || stop {
					return stop, err
				}
			}
		}
		e.rows[depth] = -1
		return false, nil
	}
	if _, err := recurse(0); err != nil {
		return nil, err
	}
	rows, err := finish()
	if err != nil {
		return nil, err
	}
	// The output tail every path shares: stable sort by the ORDER BY
	// keys, then LIMIT.
	if len(q.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			return orderLess(q.OrderBy, rows[i].keys, rows[j].keys)
		})
	}
	if q.Limit >= 0 && len(rows) > q.Limit {
		rows = rows[:q.Limit]
	}
	res.Rows = make([][]Value, len(rows))
	for i, r := range rows {
		res.Rows[i] = r.vals
	}
	return res, nil
}

// outRow is one output row before the tail: its select-list values
// and its ORDER BY keys.
type outRow struct {
	vals, keys []Value
}

// project evaluates one output row: sel for the select list, ord for
// the ORDER BY keys.
func project[X any](sel, ord []X, eval func(X) (Value, error)) (outRow, error) {
	r := outRow{vals: make([]Value, 0, len(sel)), keys: make([]Value, 0, len(ord))}
	for _, x := range sel {
		v, err := eval(x)
		if err != nil {
			return outRow{}, err
		}
		r.vals = append(r.vals, v)
	}
	for _, x := range ord {
		v, err := eval(x)
		if err != nil {
			return outRow{}, err
		}
		r.keys = append(r.keys, v)
	}
	return r, nil
}

// rowSink projects every combination of an ungrouped query. Without
// ORDER BY, LIMIT stops the enumeration as soon as enough rows exist —
// the only early stop, since sorting and grouping need every
// combination.
func rowSink(e *env, q *query) (func() (bool, error), func() ([]outRow, error)) {
	sel := make([]expr, len(q.Select))
	for i, it := range q.Select {
		sel[i] = it.Expr
	}
	ord := make([]expr, len(q.OrderBy))
	for i, ob := range q.OrderBy {
		ord[i] = ob.Expr
	}
	eval := func(x expr) (Value, error) { return evalExpr(e, x) }
	early := len(q.OrderBy) == 0 && q.Limit >= 0
	var rows []outRow
	sink := func() (bool, error) {
		if early && len(rows) >= q.Limit {
			return true, nil
		}
		r, err := project(sel, ord, eval)
		if err != nil {
			return false, err
		}
		rows = append(rows, r)
		return early && len(rows) >= q.Limit, nil
	}
	return sink, func() ([]outRow, error) { return rows, nil }
}

// gexpr is a grouped select/order expression compiled for streaming
// aggregation: aggregate calls become slots in a per-group aggState
// array, arithmetic over aggregates stays a tree, and everything else
// (including non-aggregate functions whose arguments contain
// aggregates, which therefore fault) is a leaf evaluated on the
// group's first row.
type gexpr interface{}

type gAgg struct{ i int }

type gBin struct {
	op   string
	l, r gexpr
}

type gLeaf struct{ ex expr }

func compileG(ex expr, aggs *[]funcCall) gexpr {
	switch x := ex.(type) {
	case funcCall:
		switch x.Name {
		case "min", "max", "sum", "avg", "count":
			*aggs = append(*aggs, x)
			return gAgg{i: len(*aggs) - 1}
		}
	case binExpr:
		if hasAggregate(x) {
			return gBin{op: x.Op, l: compileG(x.L, aggs), r: compileG(x.R, aggs)}
		}
	}
	return gLeaf{ex: ex}
}

// aggState folds one aggregate incrementally: nil skipping, DISTINCT
// via the formatted value, the sum/avg numeric check, and SQL's
// empty-set results.
type aggState struct {
	f     funcCall
	seen  map[string]bool
	acc   float64
	n     int
	first bool
	best  Value
}

func (a *aggState) fold(e *env) error {
	if a.f.Star || len(a.f.Args) != 1 {
		// COUNT(*) needs no per-row work; wrong arity is reported by
		// final(), so it faults even on an empty group.
		return nil
	}
	v, err := evalExpr(e, a.f.Args[0])
	if err != nil {
		return err
	}
	if a.f.Name == "count" && a.f.Distinct {
		if v != nil {
			if a.seen == nil {
				a.seen = map[string]bool{}
			}
			a.seen[formatValue(v)] = true
		}
		return nil
	}
	if v == nil {
		return nil
	}
	a.n++
	switch a.f.Name {
	case "min":
		if a.first || compareValues(v, a.best) < 0 {
			a.best = v
		}
	case "max":
		if a.first || compareValues(v, a.best) > 0 {
			a.best = v
		}
	case "sum", "avg":
		fv, ok := numeric(v)
		if !ok {
			return fmt.Errorf("prov: %s over non-numeric value %v", a.f.Name, v)
		}
		a.acc += fv
	}
	a.first = false
	return nil
}

func (a *aggState) final(combos int) (Value, error) {
	if a.f.Name == "count" && a.f.Star {
		return int64(combos), nil
	}
	if len(a.f.Args) != 1 {
		return nil, fmt.Errorf("prov: %s needs exactly one argument", a.f.Name)
	}
	if a.f.Name == "count" && a.f.Distinct {
		return int64(len(a.seen)), nil
	}
	switch a.f.Name {
	case "count":
		return int64(a.n), nil
	case "min", "max":
		return a.best, nil
	case "sum":
		if a.n == 0 {
			return nil, nil
		}
		return a.acc, nil
	case "avg":
		if a.n == 0 {
			return nil, nil
		}
		return a.acc / float64(a.n), nil
	}
	return nil, fmt.Errorf("prov: unreachable aggregate %q", a.f.Name)
}

// groupState is one output group: its first joined combination (for
// non-aggregate expressions), the combination count (for COUNT(*)) and
// the incremental aggregate folds.
type groupState struct {
	firstRows []int
	combos    int
	aggs      []aggState
}

func evalG(e *env, g gexpr, gs *groupState) (Value, error) {
	switch x := g.(type) {
	case gAgg:
		return gs.aggs[x.i].final(gs.combos)
	case gBin:
		l, err := evalG(e, x.l, gs)
		if err != nil {
			return nil, err
		}
		r, err := evalG(e, x.r, gs)
		if err != nil {
			return nil, err
		}
		return arith(x.op, l, r)
	case gLeaf:
		// An empty group has no row to read a column from; a leaf
		// that reads none (a literal) still has its value.
		if gs.combos == 0 && readsColumn(x.ex) {
			return nil, nil
		}
		e.rows = gs.firstRows
		return evalExpr(e, x.ex)
	}
	return nil, fmt.Errorf("prov: unreachable grouped expression %T", g)
}

// groupedSink streams joined combinations into groups — one map probe
// and one incremental fold per combination — instead of materializing
// the whole join and re-scanning it per group. Group keys are the
// formatValue-plus-NUL encoding of the GROUP BY values, built in a
// reused buffer.
func groupedSink(e *env, q *query) (func() (bool, error), func() ([]outRow, error)) {
	var aggTmpl []funcCall
	selG := make([]gexpr, len(q.Select))
	for i, it := range q.Select {
		selG[i] = compileG(it.Expr, &aggTmpl)
	}
	ordG := make([]gexpr, len(q.OrderBy))
	for i, ob := range q.OrderBy {
		ordG[i] = compileG(ob.Expr, &aggTmpl)
	}

	groups := map[string]*groupState{}
	var order []*groupState
	var keyBuf []byte

	newGroup := func() *groupState {
		gs := &groupState{firstRows: append([]int(nil), e.rows...)}
		gs.aggs = make([]aggState, len(aggTmpl))
		for i, f := range aggTmpl {
			gs.aggs[i] = aggState{f: f, first: true}
		}
		return gs
	}

	sink := func() (bool, error) {
		var gs *groupState
		if len(q.GroupBy) == 0 {
			if len(order) == 0 {
				order = append(order, newGroup())
			}
			gs = order[0]
		} else {
			keyBuf = keyBuf[:0]
			for _, g := range q.GroupBy {
				v, err := e.lookup(g)
				if err != nil {
					return false, err
				}
				keyBuf = appendKeyValue(keyBuf, v)
				keyBuf = append(keyBuf, 0)
			}
			gs = groups[string(keyBuf)]
			if gs == nil {
				gs = newGroup()
				groups[string(keyBuf)] = gs
				order = append(order, gs)
			}
		}
		gs.combos++
		for i := range gs.aggs {
			if err := gs.aggs[i].fold(e); err != nil {
				return false, err
			}
		}
		return false, nil
	}

	finish := func() ([]outRow, error) {
		if len(q.GroupBy) == 0 && len(order) == 0 {
			// Aggregates over an empty set still yield one row.
			order = append(order, newGroup())
		}
		rows := make([]outRow, 0, len(order))
		for _, gs := range order {
			r, err := project(selG, ordG, func(g gexpr) (Value, error) { return evalG(e, g, gs) })
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
		return rows, nil
	}
	return sink, finish
}

// appendKeyValue appends formatValue(v) to b without allocating.
// It must stay byte-identical to formatValue: group keys are the
// string form of the GROUP BY values.
func appendKeyValue(b []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return b
	case string:
		return append(b, x...)
	case int64:
		return strconv.AppendInt(b, x, 10)
	case float64:
		start := len(b)
		b = strconv.AppendFloat(b, x, 'f', 6, 64)
		for len(b) > start && b[len(b)-1] == '0' {
			b = b[:len(b)-1]
		}
		if len(b) > start && b[len(b)-1] == '.' {
			b = b[:len(b)-1]
		}
		if len(b) == start || (len(b) == start+1 && b[start] == '-') {
			b = append(b[:start], '0')
		}
		return b
	case time.Time:
		return x.AppendFormat(b, "2006-01-02 15:04:05.000")
	default:
		return fmt.Appendf(b, "%v", x)
	}
}

func orderLess(obs []orderItem, a, b []Value) bool {
	for i, ob := range obs {
		c := compareValues(a[i], b[i])
		if c == 0 {
			continue
		}
		if ob.Desc {
			return c > 0
		}
		return c < 0
	}
	return false
}

func hasAggregate(e expr) bool {
	switch x := e.(type) {
	case funcCall:
		switch x.Name {
		case "min", "max", "sum", "avg", "count":
			return true
		}
		for _, a := range x.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case binExpr:
		return hasAggregate(x.L) || hasAggregate(x.R)
	}
	return false
}

// readsColumn reports whether an expression references any column.
func readsColumn(e expr) bool {
	cols := map[string]bool{}
	aliasesOf(e, cols)
	return len(cols) > 0
}

func evalBool(e *env, b boolExpr) (bool, error) {
	switch x := b.(type) {
	case boolCond:
		return evalCondition(e, x.C)
	case boolAnd:
		l, err := evalBool(e, x.L)
		if err != nil || !l {
			return false, err
		}
		return evalBool(e, x.R)
	case boolOr:
		l, err := evalBool(e, x.L)
		if err != nil || l {
			return l, err
		}
		return evalBool(e, x.R)
	case boolNot:
		v, err := evalBool(e, x.E)
		return !v, err
	default:
		return false, fmt.Errorf("prov: unsupported boolean expression %T", b)
	}
}

func evalCondition(e *env, c condition) (bool, error) {
	l, err := evalExpr(e, c.L)
	if err != nil {
		return false, err
	}
	if c.Op == "in" {
		for _, item := range c.In {
			v, err := evalExpr(e, item)
			if err != nil {
				return false, err
			}
			if compareValues(l, v) == 0 {
				return !c.Neg, nil
			}
		}
		return c.Neg, nil
	}
	r, err := evalExpr(e, c.R)
	if err != nil {
		return false, err
	}
	if c.Op == "like" {
		ls, ok1 := l.(string)
		rs, ok2 := r.(string)
		if !ok1 || !ok2 {
			return false, fmt.Errorf("prov: LIKE needs string operands")
		}
		m := likeMatch(ls, rs)
		if c.Neg {
			m = !m
		}
		return m, nil
	}
	cmp := compareValues(l, r)
	switch c.Op {
	case "=":
		return cmp == 0, nil
	case "<>":
		return cmp != 0, nil
	case "<":
		return cmp < 0, nil
	case ">":
		return cmp > 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">=":
		return cmp >= 0, nil
	default:
		return false, fmt.Errorf("prov: unknown operator %q", c.Op)
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any one
// character). It is iterative with single-point backtracking to the
// most recent % — worst case O(len(s)·len(pat)) — so pathological
// patterns like "%a%a%a%…" cannot trigger exponential recursion, and
// it matches by rune so _ consumes one multi-byte character, not one
// byte.
func likeMatch(s, pat string) bool {
	rs, rp := []rune(s), []rune(pat)
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(rs) {
		switch {
		case pi < len(rp) && (rp[pi] == '_' || rp[pi] == rs[si]):
			si++
			pi++
		case pi < len(rp) && rp[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(rp) && rp[pi] == '%' {
		pi++
	}
	return pi == len(rp)
}

func evalExpr(e *env, ex expr) (Value, error) {
	switch x := ex.(type) {
	case litNum:
		return x.V, nil
	case litStr:
		return x.V, nil
	case colRef:
		return e.lookup(x)
	case binExpr:
		return evalBin(e, x)
	case funcCall:
		return evalFunc(e, x)
	default:
		return nil, fmt.Errorf("prov: unsupported expression %T", ex)
	}
}

func evalBin(e *env, b binExpr) (Value, error) {
	l, err := evalExpr(e, b.L)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(e, b.R)
	if err != nil {
		return nil, err
	}
	return arith(b.Op, l, r)
}

// arith applies one arithmetic operator to two values, per row or to
// aggregate results alike: timestamp minus timestamp is an interval in
// seconds (float64); anything else needs two numbers, so NULL errors.
func arith(op string, l, r Value) (Value, error) {
	if lt, ok := l.(time.Time); ok {
		if rt, ok := r.(time.Time); ok && op == "-" {
			return lt.Sub(rt).Seconds(), nil
		}
	}
	lf, ok1 := numeric(l)
	rf, ok2 := numeric(r)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("prov: arithmetic on non-numeric values %v %s %v", l, op, r)
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("prov: division by zero")
		}
		return lf / rf, nil
	default:
		return nil, fmt.Errorf("prov: unknown arithmetic operator %q", op)
	}
}

func evalFunc(e *env, f funcCall) (Value, error) {
	switch f.Name {
	case "extract":
		if len(f.Args) != 2 {
			return nil, fmt.Errorf("prov: extract needs field and expression")
		}
		field, _ := f.Args[0].(litStr)
		if field.V != "epoch" {
			return nil, fmt.Errorf("prov: extract supports 'epoch' only, got %q", field.V)
		}
		v, err := evalExpr(e, f.Args[1])
		if err != nil {
			return nil, err
		}
		switch x := v.(type) {
		case float64: // interval already in seconds
			return x, nil
		case int64:
			return float64(x), nil
		case time.Time:
			return float64(x.UnixNano()) / 1e9, nil
		default:
			return nil, fmt.Errorf("prov: extract(epoch) from %T unsupported", v)
		}
	case "min", "max", "sum", "avg", "count":
		return nil, fmt.Errorf("prov: aggregate %s used outside grouped context", f.Name)
	default:
		return nil, fmt.Errorf("prov: unknown function %q", f.Name)
	}
}

// Format renders the result like psql's aligned output (the style of
// Figures 10 and 11 in the paper).
func (r *Result) Format() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := formatValue(v)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			sb.WriteString(" | ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	sb.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], s)
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "(%d rows)\n", len(r.Rows))
	return sb.String()
}
