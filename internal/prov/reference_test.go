package prov

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// The reference executor is the oracle the planner is held to: an
// unindexed nested-loop join that materializes every combination, then
// groups, sorts and limits. It lives in the tests only; FuzzQuery, the
// campaign test and TestPlannerMatchesReferenceRandomized run queries
// through both executors with checkQuery.

// maxVisits bounds the rows the reference executor visits in one join,
// since it materializes every surviving combination; checkQuery skips
// larger queries with errJoinTooLarge.
const maxVisits = 1 << 18

var errJoinTooLarge = errors.New("prov: join too large for the reference executor")

// checkQuery runs sql through the planner and the reference executor on
// one snapshot and reports any divergence. SQL that does not parse or
// names a missing table is not compared (both executors share that
// path); a join over maxVisits returns errJoinTooLarge.
func checkQuery(db *DB, sql string) error {
	q, err := Parse(sql)
	if err != nil {
		return nil
	}
	tables, err := db.snapshot(q)
	if err != nil {
		return nil
	}
	ref, rerr := executeReference(tables, q)
	if errors.Is(rerr, errJoinTooLarge) {
		return rerr
	}
	res, perr := executePlanned(tables, q)
	if cerr := compareResults(res, perr, ref, rerr); cerr != nil {
		return fmt.Errorf("%w\nquery: %s", cerr, sql)
	}
	return nil
}

// compareResults reports a divergence between the planner and the
// reference executor. Both failing counts as agreement: the planner
// folds aggregates incrementally and stops at LIMIT, so when a query
// errors, which of several errors surfaces first may differ. Empty and
// nil row sets also count as equal (the executors reach length zero by
// different paths), and so do two NaNs (arithmetic can overflow to
// Inf - Inf).
func compareResults(p *Result, perr error, r *Result, rerr error) error {
	if (perr != nil) != (rerr != nil) {
		return fmt.Errorf("prov: planner/reference divergence: planner err=%v, reference err=%v", perr, rerr)
	}
	if perr != nil {
		return nil
	}
	if !reflect.DeepEqual(p.Columns, r.Columns) {
		return fmt.Errorf("prov: planner/reference divergence: columns %v vs %v", p.Columns, r.Columns)
	}
	if len(p.Rows) != len(r.Rows) {
		return fmt.Errorf("prov: planner/reference divergence: %d rows vs %d rows", len(p.Rows), len(r.Rows))
	}
	for i := range p.Rows {
		if !sameRow(p.Rows[i], r.Rows[i]) {
			return fmt.Errorf("prov: planner/reference divergence at row %d: %v vs %v", i, p.Rows[i], r.Rows[i])
		}
	}
	return nil
}

func sameRow(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, xf := a[i].(float64)
		y, yf := b[i].(float64)
		if xf && yf && x != x && y != y {
			continue
		}
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// executeReference is the straightforward executor the planner is
// pinned against: unindexed nested-loop join materializing every
// combination, then grouping/sorting/limiting.
func executeReference(tables []boundTable, q *query) (*Result, error) {
	e := &env{tables: tables, rows: make([]int, len(tables))}
	for i := range e.rows {
		e.rows[i] = -1
	}

	condAt := assignConjuncts(tables, q)

	grouped := len(q.GroupBy) > 0
	if !grouped {
		for _, it := range q.Select {
			if hasAggregate(it.Expr) {
				grouped = true
				break
			}
		}
	}
	// LIMIT without ORDER BY or grouping ends the join once it holds
	// enough combinations, as a streaming engine does: rows past the
	// limit are never read, so their errors never surface.
	limit := -1
	if !grouped && len(q.OrderBy) == 0 {
		limit = q.Limit
	}

	var joined []([]int)
	var joinErr error
	stopped := false
	visits := 0
	var recurse func(depth int)
	recurse = func(depth int) {
		if depth == len(tables) {
			if limit < 0 || len(joined) < limit {
				joined = append(joined, append([]int(nil), e.rows...))
			}
			stopped = limit >= 0 && len(joined) >= limit
			return
		}
		n := tables[depth].snap.n
		for ri := 0; ri < n && joinErr == nil && !stopped; ri++ {
			if visits++; visits > maxVisits {
				joinErr = errJoinTooLarge
				return
			}
			e.rows[depth] = ri
			ok := true
			for _, c := range condAt[depth] {
				pass, err := evalBool(e, c)
				if err != nil {
					joinErr = err
					return
				}
				if !pass {
					ok = false
					break
				}
			}
			if ok {
				recurse(depth + 1)
			}
		}
		e.rows[depth] = -1
	}
	recurse(0)
	if joinErr != nil {
		return nil, joinErr
	}

	res := &Result{}
	for _, it := range q.Select {
		res.Columns = append(res.Columns, it.Alias)
	}

	if grouped {
		groups := map[string][][]int{}
		var order []string
		for _, rows := range joined {
			e.rows = rows
			var key strings.Builder
			for _, g := range q.GroupBy {
				v, err := e.lookup(g)
				if err != nil {
					return nil, err
				}
				key.WriteString(formatValue(v))
				key.WriteByte('\x00')
			}
			k := key.String()
			if _, seen := groups[k]; !seen {
				order = append(order, k)
			}
			groups[k] = append(groups[k], rows)
		}
		if len(q.GroupBy) == 0 && len(joined) > 0 {
			order = []string{""}
			groups[""] = joined
		}
		if len(q.GroupBy) == 0 && len(joined) == 0 {
			// Aggregates over an empty set still yield one row.
			order = []string{""}
			groups[""] = nil
		}
		type outRow struct {
			vals []Value
			keys []Value
		}
		var rows []outRow
		for _, k := range order {
			g := groups[k]
			var vals []Value
			for _, it := range q.Select {
				v, err := evalGrouped(e, it.Expr, g)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
			}
			var keys []Value
			for _, ob := range q.OrderBy {
				v, err := evalGrouped(e, ob.Expr, g)
				if err != nil {
					return nil, err
				}
				keys = append(keys, v)
			}
			rows = append(rows, outRow{vals: vals, keys: keys})
		}
		if len(q.OrderBy) > 0 {
			sort.SliceStable(rows, func(i, j int) bool {
				return orderLess(q.OrderBy, rows[i].keys, rows[j].keys)
			})
		}
		for _, r := range rows {
			res.Rows = append(res.Rows, r.vals)
		}
	} else {
		type outRow struct {
			vals []Value
			keys []Value
		}
		var rows []outRow
		for _, rset := range joined {
			e.rows = rset
			var vals []Value
			for _, it := range q.Select {
				v, err := evalExpr(e, it.Expr)
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
			}
			var keys []Value
			for _, ob := range q.OrderBy {
				v, err := evalExpr(e, ob.Expr)
				if err != nil {
					return nil, err
				}
				keys = append(keys, v)
			}
			rows = append(rows, outRow{vals, keys})
		}
		if len(q.OrderBy) > 0 {
			sort.SliceStable(rows, func(i, j int) bool {
				return orderLess(q.OrderBy, rows[i].keys, rows[j].keys)
			})
		}
		for _, r := range rows {
			res.Rows = append(res.Rows, r.vals)
		}
	}

	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

// evalGrouped evaluates an expression over a group of joined rows:
// aggregates fold the group, other expressions evaluate on the first
// row (SQL requires them to be functionally dependent on the group
// key; we follow PostgreSQL 8.4's permissiveness).
func evalGrouped(e *env, ex expr, group [][]int) (Value, error) {
	switch x := ex.(type) {
	case funcCall:
		switch x.Name {
		case "min", "max", "sum", "avg", "count":
			return foldAggregate(e, x, group)
		}
	case binExpr:
		if hasAggregate(x) {
			l, err := evalGrouped(e, x.L, group)
			if err != nil {
				return nil, err
			}
			r, err := evalGrouped(e, x.R, group)
			if err != nil {
				return nil, err
			}
			return arith(x.Op, l, r)
		}
	}
	if len(group) > 0 {
		e.rows = group[0]
	} else if readsColumn(ex) {
		return nil, nil
	}
	return evalExpr(e, ex)
}

func foldAggregate(e *env, f funcCall, group [][]int) (Value, error) {
	if f.Name == "count" && f.Star {
		return int64(len(group)), nil
	}
	if len(f.Args) != 1 {
		return nil, fmt.Errorf("prov: %s needs exactly one argument", f.Name)
	}
	if f.Name == "count" && f.Distinct {
		seen := map[string]bool{}
		for _, rows := range group {
			e.rows = rows
			v, err := evalExpr(e, f.Args[0])
			if err != nil {
				return nil, err
			}
			if v != nil {
				seen[formatValue(v)] = true
			}
		}
		return int64(len(seen)), nil
	}
	var (
		acc   float64
		n     int
		first = true
		best  Value
	)
	for _, rows := range group {
		e.rows = rows
		v, err := evalExpr(e, f.Args[0])
		if err != nil {
			return nil, err
		}
		if v == nil {
			continue
		}
		n++
		switch f.Name {
		case "count":
			continue
		case "min":
			if first || compareValues(v, best) < 0 {
				best = v
			}
		case "max":
			if first || compareValues(v, best) > 0 {
				best = v
			}
		case "sum", "avg":
			fv, ok := numeric(v)
			if !ok {
				return nil, fmt.Errorf("prov: %s over non-numeric value %v", f.Name, v)
			}
			acc += fv
		}
		first = false
	}
	switch f.Name {
	case "count":
		return int64(n), nil
	case "min", "max":
		return best, nil
	case "sum":
		if n == 0 {
			return nil, nil
		}
		return acc, nil
	case "avg":
		if n == 0 {
			return nil, nil
		}
		return acc / float64(n), nil
	}
	return nil, fmt.Errorf("prov: unreachable aggregate %q", f.Name)
}
