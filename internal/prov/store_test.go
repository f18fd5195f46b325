package prov

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- segmented storage ---

func kvTable(t *testing.T, rows int) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable("kv", []Column{
		{"id", TInt}, {"grp", TString}, {"val", TFloat},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := db.Insert("kv", []Value{int64(i), fmt.Sprintf("g%d", i%7), float64(i) / 2}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestSegmentSealing(t *testing.T) {
	// Cross two seal boundaries so queries and updates exercise sealed
	// segments, the mutable tail, and the transition between them.
	n := 2*segSize + segSize/2
	db := kvTable(t, n)
	if got := db.NumRows("kv"); got != n {
		t.Fatalf("NumRows = %d, want %d", got, n)
	}
	res, err := db.Query("SELECT count(*), min(id), max(id) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != int64(n) || res.Rows[0][1].(int64) != 0 || res.Rows[0][2].(int64) != int64(n-1) {
		t.Fatalf("aggregate over segments = %v", res.Rows[0])
	}
	// Point-read one row per region.
	for _, id := range []int{0, segSize - 1, segSize, 2*segSize - 1, 2 * segSize, n - 1} {
		res, err := db.Query(fmt.Sprintf("SELECT val FROM kv WHERE id = %d", id))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].(float64) != float64(id)/2 {
			t.Fatalf("row %d = %v", id, res.Rows)
		}
	}
}

func TestUpdateCopyOnWriteSealedRow(t *testing.T) {
	db := kvTable(t, segSize+10)
	// Row 5 is in a sealed segment; row segSize+5 is in the tail.
	for _, id := range []int{5, segSize + 5} {
		// kv has no index: this is UpdateByKey's scan path.
		n, err := db.UpdateByKey("kv", "id", int64(id), func(row []Value) { row[2] = -1.0 })
		if err != nil || n != 1 {
			t.Fatalf("update id %d: n=%d err=%v", id, n, err)
		}
		res, err := db.Query(fmt.Sprintf("SELECT val FROM kv WHERE id = %d", id))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows[0][0].(float64) != -1.0 {
			t.Fatalf("update of row %d not visible: %v", id, res.Rows)
		}
	}
}

// --- hash indexes ---

func TestCreateIndexAndUpdateByKey(t *testing.T) {
	db := kvTable(t, 100)
	// Backfilled index created after the inserts.
	if err := db.CreateIndex("kv", "id"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("kv", "id"); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := db.CreateIndex("kv", "nope"); err == nil {
		t.Error("index on missing column accepted")
	}
	if err := db.CreateIndex("nope", "id"); err == nil {
		t.Error("index on missing table accepted")
	}
	n, err := db.UpdateByKey("kv", "id", int64(42), func(row []Value) { row[2] = 99.0 })
	if err != nil || n != 1 {
		t.Fatalf("UpdateByKey: n=%d err=%v", n, err)
	}
	// Non-indexed column falls back to a scan with identical results.
	n, err = db.UpdateByKey("kv", "grp", "g3", func(row []Value) { row[2] = 777.5 })
	if err != nil {
		t.Fatal(err)
	}
	if want := 100 / 7; n != want+1 && n != want {
		t.Fatalf("scan UpdateByKey matched %d rows", n)
	}
	res, err := db.Query("SELECT count(*) FROM kv WHERE val = 777.5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != int64(n) {
		t.Fatalf("updated rows not visible: %v of %d", res.Rows[0][0], n)
	}
}

func TestIndexMaintainedAcrossKeyChange(t *testing.T) {
	db := kvTable(t, 50)
	if err := db.CreateIndex("kv", "grp"); err != nil {
		t.Fatal(err)
	}
	// Move every g1 row to g-moved; the posting lists must follow.
	moved, err := db.UpdateByKey("kv", "grp", "g1", func(row []Value) { row[1] = "g-moved" })
	if err != nil || moved == 0 {
		t.Fatalf("move: n=%d err=%v", moved, err)
	}
	if n, err := db.UpdateByKey("kv", "grp", "g1", func(row []Value) {}); err != nil || n != 0 {
		t.Fatalf("old key still indexed: n=%d err=%v", n, err)
	}
	if n, err := db.UpdateByKey("kv", "grp", "g-moved", func(row []Value) {}); err != nil || n != moved {
		t.Fatalf("new key finds %d rows, want %d", n, moved)
	}
	res, err := db.Query("SELECT count(*) FROM kv WHERE grp = 'g-moved'")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != int64(moved) {
		t.Fatalf("query after re-key: %v", res.Rows[0])
	}
}

func TestIndexKeyNormalization(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("m", []Column{{"f", TFloat}, {"s", TString}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("m", "f"); err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{1, 2, 2, 3} {
		if err := db.Insert("m", []Value{v, "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert("m", []Value{nil, "nilrow"}); err != nil {
		t.Fatal(err)
	}
	// An int literal in SQL must probe float cells (compareValues
	// unifies numerics, so the index key must too).
	res, err := db.Query("SELECT count(*) FROM m WHERE f = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 2 {
		t.Fatalf("numeric unification: %v", res.Rows[0])
	}
}

// --- snapshot vs update aliasing (the zero-copy hazard) ---

func TestConcurrentQueryCloseRace(t *testing.T) {
	db, err := NewProvWfDB()
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	for i := 1; i <= n; i++ {
		if err := db.InsertActivation(int64(i), 1, 1, StatusRunning, base, base, "vm-1", 0, "cmd"); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 1; i <= n; i++ {
			if err := db.CloseActivation(int64(i), StatusFinished, base.Add(time.Second), 1); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			res, err := db.Query("SELECT status, count(*), sum(failures) FROM hactivation GROUP BY status")
			if err != nil {
				t.Error(err)
				return
			}
			// Every snapshot must see exactly n rows split between the
			// two states — a torn row would break either invariant.
			var rows, fails int64
			for _, r := range res.Rows {
				rows += r[1].(int64)
				if r[0].(string) == StatusRunning && r[2] != nil {
					fails += int64(r[2].(float64))
				}
			}
			if rows != n {
				t.Errorf("snapshot saw %d rows, want %d", rows, n)
				return
			}
			if fails != 0 {
				t.Errorf("RUNNING rows with nonzero failures: %d", fails)
				return
			}
		}
	}()
	wg.Wait()
}

// --- buffered appender ---

func TestAppenderMatchesDirectWrites(t *testing.T) {
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	feed := func(begin func(taskid int64) error, closeA func(taskid int64) error,
		file func(i int64) error, dock func(i int64) error, terminal func(i int64) error) {
		t.Helper()
		for i := int64(1); i <= 150; i++ {
			if err := begin(i); err != nil {
				t.Fatal(err)
			}
			if err := closeA(i); err != nil {
				t.Fatal(err)
			}
			if err := file(i); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if err := dock(i); err != nil {
					t.Fatal(err)
				}
			}
			if i%10 == 0 {
				if err := terminal(i + 1000); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	build := func(limit int) []byte {
		t.Helper()
		db, err := NewProvWfDB()
		if err != nil {
			t.Fatal(err)
		}
		if limit < 0 { // direct writes, no appender
			feed(
				func(i int64) error { return db.InsertActivation(i, 1, 1, StatusRunning, base, base, "vm", 0, "c") },
				func(i int64) error {
					return db.CloseActivation(i, StatusFinished, base.Add(time.Duration(i)*time.Second), i%2)
				},
				func(i int64) error { return db.InsertFile(i, i, 1, 1, "f.dlg", 10, "/d/") },
				func(i int64) error { return db.InsertDocking(i, 1, "R", "L", "ad4", -1.5, 0.2, 10) },
				func(i int64) error {
					return db.InsertActivation(i, 1, 1, StatusAborted, base, base, "-", 0, "c # aborted")
				},
			)
		} else {
			app := NewAppender(db, limit)
			feed(
				func(i int64) error { return app.BeginActivation(i, 1, 1, base, "vm", "c") },
				func(i int64) error {
					return app.CloseActivation(i, StatusFinished, base.Add(time.Duration(i)*time.Second), i%2)
				},
				func(i int64) error { return app.InsertFile(i, i, 1, 1, "f.dlg", 10, "/d/") },
				func(i int64) error { return app.InsertDocking(i, 1, "R", "L", "ad4", -1.5, 0.2, 10) },
				func(i int64) error {
					return app.InsertActivation(i, 1, 1, StatusAborted, base, base, "-", 0, "c # aborted")
				},
			)
			if err := app.Flush(); err != nil {
				t.Fatal(err)
			}
			if app.Pending() != 0 {
				t.Fatalf("pending after flush: %d", app.Pending())
			}
		}
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := build(-1)
	for _, limit := range []int{1, 4, 64, 1 << 20} {
		if got := build(limit); !bytes.Equal(got, want) {
			t.Errorf("appender(limit=%d) tables differ from direct writes", limit)
		}
	}
}

func TestAppenderCloseAfterFlush(t *testing.T) {
	db, err := NewProvWfDB()
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	app := NewAppender(db, 0)
	if err := app.BeginActivation(7, 1, 1, base, "vm", "c"); err != nil {
		t.Fatal(err)
	}
	if err := app.Flush(); err != nil {
		t.Fatal(err)
	}
	// The RUNNING row is in the DB now; the close goes through the
	// indexed point update.
	if err := app.CloseActivation(7, StatusFinished, base.Add(time.Minute), 2); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT status, failures FROM hactivation WHERE taskid = 7")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(string) != StatusFinished || res.Rows[0][1].(int64) != 2 {
		t.Fatalf("close after flush: %v", res.Rows[0])
	}
	// Closing an unknown activation still reports the error.
	if err := app.CloseActivation(999, StatusFinished, base, 0); err == nil {
		t.Error("close of missing activation accepted")
	}
}

func TestAppenderAutoFlushAtCap(t *testing.T) {
	db, err := NewProvWfDB()
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	app := NewAppender(db, 3)
	for i := int64(1); i <= 3; i++ {
		if err := app.InsertFile(i, i, 1, 1, "f", 1, "/"); err != nil {
			t.Fatal(err)
		}
	}
	if app.Pending() != 0 {
		t.Fatalf("cap did not flush: pending %d", app.Pending())
	}
	if got := db.NumRows(TableFile); got != 3 {
		t.Fatalf("flushed rows = %d", got)
	}
	// Validation errors surface at append time, like direct inserts.
	if err := app.InsertActivation(1, 1, 1, StatusFinished, base, base, "vm", 0, "c"); err != nil {
		t.Fatal(err)
	}
	if err := app.add(TableFile, []Value{"wrong-type"}); err == nil {
		t.Error("appender accepted schema-violating row")
	}
	if err := app.add("missing", []Value{int64(1)}); err == nil {
		t.Error("appender accepted missing table")
	}
	if err := app.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := app.CloseActivation(1, StatusFinished, base, 0); err != nil {
		t.Fatal(err)
	}
}

// --- planner==reference property test over randomized rows ---

// randomDB fills a PROV-Wf database and two plain tables t and u
// (id, grp, val, n, ts) with rows drawn from seed: duplicate keys,
// repeated timestamps and, for odd seeds only, NULLs in every column.
// t is indexed on id and grp, u on id and ts, and the PROV-Wf tables
// carry their default indexes, so queries take both the index and the
// scan paths. TestPlannerMatchesReferenceRandomized and FuzzQuery
// query it.
func randomDB(seed int64) (*DB, error) {
	rng := rand.New(rand.NewSource(seed))
	nulls := seed%2 != 0
	cell := func(v Value) Value {
		if nulls && rng.Intn(8) == 0 {
			return nil
		}
		return v
	}
	pick := func(vals ...string) Value { return cell(vals[rng.Intn(len(vals))]) }
	num := func(lo, hi int) Value { return cell(int64(lo + rng.Intn(hi-lo+1))) }
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	// Forty instants 30 s apart, so timestamps repeat.
	at := func() Value { return cell(base.Add(time.Duration(rng.Intn(40)) * 30 * time.Second)) }

	db, err := NewProvWfDB()
	if err != nil {
		return nil, err
	}
	for _, tn := range []string{"t", "u"} {
		if err := db.CreateTable(tn, []Column{
			{"id", TInt}, {"grp", TString}, {"val", TFloat}, {"n", TInt}, {"ts", TTime},
		}); err != nil {
			return nil, err
		}
	}
	for _, ix := range [][2]string{{"t", "id"}, {"t", "grp"}, {"u", "id"}, {"u", "ts"}} {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			return nil, err
		}
	}
	ins := func(table string, row ...Value) {
		if err == nil {
			err = db.Insert(table, row)
		}
	}
	nw := 2 + rng.Intn(2) // a third row duplicates a wkfid
	for w := 0; w < nw; w++ {
		ins(TableWorkflow, num(1, 2), pick("SciDock", "SciDock-vina"), pick("Docking"), pick("scidock"), pick("/exp/"))
	}
	tags := []string{"babel", "recprep", "autogrid", "autodock4", "vina", "src", "dock"}
	for a := 1; a <= 6; a++ {
		ins(TableActivity, cell(int64(a)), num(1, 2), pick(tags...), pick("/exp/template/"), pick("./experiment.cmd"), pick("READY"))
	}
	n := 10 + rng.Intn(30)
	for i := 0; i < n; i++ {
		start, end := at(), at()
		if st, ok := start.(time.Time); ok && end != nil {
			end = st.Add(time.Duration(rng.Intn(4)) * 30 * time.Second)
		}
		ins(TableActivation, num(1, n), num(1, 7), num(1, 2),
			pick(StatusRunning, StatusFinished, StatusFailed, StatusAborted),
			start, end, pick("vm-0", "vm-1", "vm-2"), num(0, 2), pick("cmd-babel", "cmd-dock", "cmd # aborted"))
		ins(TableFile, cell(int64(i+1)), num(1, n), num(1, 7), num(1, 2),
			pick("2HHN_0E6.dlg", "1S4V_0D6.dlg", "GOL_4C5P.dlg", "0E6.pdbqt", "2HHN.gpf"),
			cell(int64(rng.Intn(5)*1000)), pick("/exp/autodock4/", "/exp/vina/"))
		if i%2 == 0 {
			ins(TableDocking, num(1, n), num(1, 2), pick("2HHN", "1S4V", "1HUC", "4C5P"),
				pick("0E6", "0D6", "GOL", "COA"), pick("autodock4", "vina"),
				cell(float64(rng.Intn(120)-100)/10), cell(float64(rng.Intn(600))/10), num(1, 10))
		}
	}
	for r := 1; r <= 6; r++ {
		ins(TableRelation, cell(int64(r)), num(1, 6), pick("rel_in_babel", "rel_out_babel", "rel_in_dock"),
			pick("Input", "Output"), pick("babel.txt", "dock.txt"))
	}
	rows := 20 + rng.Intn(60)
	for i := 0; i < rows; i++ {
		for _, tn := range []string{"t", "u"} {
			ins(tn, num(0, rows/2), pick("a", "b", "c", "dd", "", "ñ"),
				cell(float64(rng.Intn(20)-4)/4), num(-3, 3), at())
		}
	}
	return db, err
}

func TestPlannerMatchesReferenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	groups := []string{"a", "b", "c", "dd", "ñ"}
	// The planner must answer these without error on every round, NULLs
	// included: NULL sorts first, and the id = N, val >= 0 and grp >= ''
	// filters drop NULL rows before arithmetic or LIKE can see them.
	nullSafe := []string{
		"SELECT id, grp, val FROM t WHERE id = %d",
		"SELECT id FROM t WHERE id = %d ORDER BY val DESC LIMIT 3",
		"SELECT grp, count(*), sum(val), avg(val), min(val), max(val) FROM t GROUP BY grp ORDER BY grp",
		"SELECT count(distinct grp) FROM t WHERE id >= %d",
		"SELECT a.id, b.val FROM t a, u b WHERE a.id = b.id AND a.val >= %d ORDER BY a.id, b.val LIMIT 20",
		"SELECT b.grp, count(*) FROM t a, u b WHERE a.id = b.id AND a.grp = '%s' GROUP BY b.grp ORDER BY b.grp",
		"SELECT id, val FROM u WHERE id = %d AND val > 1",
		"SELECT count(*) FROM t WHERE grp IN ('a', 'b') AND id <> %d",
		"SELECT grp FROM t WHERE grp >= '' AND grp LIKE '%%d%%' AND id >= %d ORDER BY id LIMIT 5",
		"SELECT max(ts), min(ts), count(*) FROM u WHERE id = %d",
		"SELECT id + val, id * 2 FROM t WHERE id = %d AND val >= 0 ORDER BY id + val",
		"SELECT count(*) - count(val) FROM t WHERE id >= %d",
		"SELECT id FROM t WHERE id = %d LIMIT 0",
	}
	// Widened: arithmetic over aggregates, literals on an empty group,
	// the timestamp index, LIMIT without ORDER BY, IN over negative
	// numbers. Some do arithmetic on NULL, so only the NULL-free even
	// rounds must answer them without error.
	widened := []string{
		"SELECT count(*) + 1, count(val) * 2 FROM u WHERE id = %d",
		"SELECT grp, max(ts) - min(ts), sum(n) FROM t GROUP BY grp ORDER BY max(ts) - min(ts) DESC, grp",
		"SELECT 1, 'x', count(*) FROM t WHERE id < %d - 100",
		"SELECT a.id, b.id FROM u a, u b WHERE a.id = %d AND b.ts = a.ts ORDER BY b.id",
		"SELECT n, count(*) FROM t WHERE n IN (-1, 0, 1) GROUP BY n ORDER BY n DESC",
		"SELECT grp, n FROM t WHERE NOT grp = 'a' OR n > %d LIMIT 7",
		"SELECT extract('epoch' from ts) FROM t WHERE id = %d ORDER BY ts DESC, id",
		"SELECT a.grp, a.n * b.n FROM t a, u b WHERE a.grp = b.grp AND a.id < %d ORDER BY a.n * b.n, a.grp LIMIT 9",
		"SELECT t.grp, count(*) FROM hactivation h, t WHERE h.taskid = t.id GROUP BY t.grp ORDER BY t.grp",
	}
	queries := append(append([]string(nil), nullSafe...), widened...)
	for round := 0; round < 6; round++ {
		db, err := randomDB(int64(round))
		if err != nil {
			t.Fatal(err)
		}
		nrows := db.NumRows("t")
		for i := 0; i < 60; i++ {
			k := rng.Intn(len(queries))
			q := queries[k]
			var sql string
			if strings.Contains(q, "'%s'") {
				sql = fmt.Sprintf(q, groups[rng.Intn(len(groups))])
			} else if strings.Contains(q, "%d") {
				sql = fmt.Sprintf(q, rng.Intn(nrows/2+5))
			} else {
				sql = q
			}
			if err := checkQuery(db, sql); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if _, err := db.Query(sql); err != nil && (round%2 == 0 || k < len(nullSafe)) {
				t.Fatalf("round %d query %q: %v", round, sql, err)
			}
		}
	}
}

// TestCompareResultsDetectsDivergence makes sure the oracle itself
// works: a deliberately broken comparison must be caught, not silently
// pass.
func TestCompareResultsDetectsDivergence(t *testing.T) {
	db := kvTable(t, 10)
	res, err := db.Query("SELECT count(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	ref := &Result{Columns: res.Columns, Rows: [][]Value{{int64(9)}}}
	if cerr := compareResults(res, nil, ref, nil); cerr == nil {
		t.Error("compareResults missed a row divergence")
	}
	if cerr := compareResults(res, nil, nil, fmt.Errorf("boom")); cerr == nil {
		t.Error("compareResults missed an error-status divergence")
	}
	if cerr := compareResults(nil, fmt.Errorf("a"), nil, fmt.Errorf("b")); cerr != nil {
		t.Errorf("both-error treated as divergence: %v", cerr)
	}
}

// --- likeMatch satellite coverage ---

func TestLikeMatchEdgeCases(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		// %% collapses to %.
		{"abc", "%%", true},
		{"abc", "a%%c", true},
		{"abc", "%%%%", true},
		{"", "%%", true},
		// _ consumes exactly one rune, including multi-byte ones.
		{"héllo", "h_llo", true},
		{"日本", "__", true},
		{"日本", "_本", true},
		{"日本", "___", false},
		{"naïve", "na_ve", true},
		// Patterns ending in %.
		{"abc", "abc%", true},
		{"abc", "ab%", true},
		{"abc", "abcd%", false},
		{"", "a%", false},
		// % then trailing literal.
		{"a.dlg.bak", "%.dlg", false},
		{"x.dlg", "%.dlg%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestLikeMatchPathologicalBacktracking(t *testing.T) {
	// The classic exponential-backtracking killer: many % separators
	// over a subject that almost matches. The iterative matcher is
	// O(len(s)·len(pat)); the old recursive one would not return
	// within the lifetime of the test process.
	s := strings.Repeat("a", 3000)
	pat := strings.Repeat("a%", 40) + "b"
	start := time.Now()
	if likeMatch(s, pat) {
		t.Error("pattern should not match")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pathological pattern took %v", elapsed)
	}
	if !likeMatch(s+"b", pat) {
		t.Error("pattern should match with trailing b")
	}
}

// --- allocation guards ---

func TestColumnIndexAllocs(t *testing.T) {
	db, err := NewProvWfDB()
	if err != nil {
		t.Fatal(err)
	}
	tab, err := db.lookupTable(TableActivation)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(500, func() {
		if tab.ColumnIndex("taskid") < 0 {
			t.Fatal("taskid missing")
		}
	}); got != 0 {
		t.Errorf("ColumnIndex(lowercase) allocates %v per call, want 0", got)
	}
	// Case-insensitive resolution still works.
	if tab.ColumnIndex("TaskID") != tab.ColumnIndex("taskid") {
		t.Error("case-insensitive lookup broken")
	}
}

func TestQueryAllocsScaleFree(t *testing.T) {
	// The zero-copy snapshot must keep per-query allocations
	// independent of table size: the seed implementation deep-copied
	// every row of every referenced table on every Query.
	measure := func(rows int) float64 {
		db := kvTable(t, rows)
		if err := db.CreateIndex("kv", "id"); err != nil {
			t.Fatal(err)
		}
		sql := fmt.Sprintf("SELECT val FROM kv WHERE id = %d", rows-1)
		return testing.AllocsPerRun(50, func() {
			if _, err := db.Query(sql); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := measure(512)
	big := measure(64 * 1024)
	if big > 2*small+32 {
		t.Errorf("point-query allocs grew with table size: %v at 512 rows, %v at 64k rows", small, big)
	}
}
