package prov

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func seededDB(t *testing.T) *DB {
	t.Helper()
	db, err := NewProvWfDB()
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	if err := db.InsertWorkflow(432, "SciDock", "Docking", "scidock", "/root/scidock/"); err != nil {
		t.Fatal(err)
	}
	acts := []string{"babel1k", "configprep1k", "autodock41k"}
	for i, tag := range acts {
		if err := db.InsertActivity(int64(i+1), 432, tag, "/root/scidock/template/", "./experiment.cmd"); err != nil {
			t.Fatal(err)
		}
	}
	// Activations: babel 3 quick, configprep 2 medium, autodock 2 long.
	ins := func(taskid, actid int64, start time.Time, dur float64) {
		t.Helper()
		if err := db.InsertActivation(taskid, actid, 432, StatusFinished,
			start, start.Add(time.Duration(dur*float64(time.Second))), "vm-1", 0, "cmd"); err != nil {
			t.Fatal(err)
		}
	}
	ins(1, 1, base, 2.0)
	ins(2, 1, base.Add(time.Minute), 3.0)
	ins(3, 1, base.Add(2*time.Minute), 4.0)
	ins(4, 2, base.Add(3*time.Minute), 40.0)
	ins(5, 2, base.Add(4*time.Minute), 50.0)
	ins(6, 3, base.Add(5*time.Minute), 500.0)
	ins(7, 3, base.Add(6*time.Minute), 700.0)
	// Files.
	files := []struct {
		id    int64
		name  string
		size  int64
		taskd int64
	}{
		{1, "GOL_4C5P.dlg", 65740, 6},
		{2, "COA_4BGF.dlg", 69499, 7},
		{3, "0E6_2HHN.pdbqt", 1234, 1},
	}
	for _, f := range files {
		if err := db.InsertFile(f.id, f.taskd, 3, 432, f.name, f.size, "/root/exp_SciDock/autodock4/"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("t", []Column{{"a", TInt}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("t", []Column{{"a", TInt}}); err == nil {
		t.Error("duplicate table accepted")
	}
	if err := db.CreateTable("u", nil); err == nil {
		t.Error("empty schema accepted")
	}
	if err := db.CreateTable("v", []Column{{"a", TInt}, {"A", TString}}); err == nil {
		t.Error("duplicate column accepted")
	}
}

func TestInsertTypeChecking(t *testing.T) {
	db := NewDB()
	if err := db.CreateTable("t", []Column{{"a", TInt}, {"b", TString}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", []Value{int64(1), "x"}); err != nil {
		t.Errorf("valid insert rejected: %v", err)
	}
	if err := db.Insert("t", []Value{"wrong", "x"}); err == nil {
		t.Error("type mismatch accepted")
	}
	if err := db.Insert("t", []Value{int64(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := db.Insert("missing", []Value{int64(1)}); err == nil {
		t.Error("missing table accepted")
	}
	if err := db.Insert("t", []Value{nil, nil}); err != nil {
		t.Errorf("nulls rejected: %v", err)
	}
}

// The histogram query from §V.C, verbatim apart from the workflow id.
func TestHistogramQuery(t *testing.T) {
	db := seededDB(t)
	sql := `SELECT extract ('epoch' from (t.endtime-t.starttime))
FROM hworkflow w, hactivity a, hactivation t
WHERE w.wkfid = a.wkfid
AND a.actid = t.actid
AND w.wkfid = 432
ORDER BY t.endtime`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	want := []float64{2, 3, 4, 40, 50, 500, 700}
	for i, w := range want {
		got, ok := res.Rows[i][0].(float64)
		if !ok || math.Abs(got-w) > 1e-9 {
			t.Errorf("row %d = %v, want %v", i, res.Rows[i][0], w)
		}
	}
}

// Query 1 from Figure 10, verbatim.
func TestQuery1(t *testing.T) {
	db := seededDB(t)
	sql := `SELECT a.tag,
min(extract ('epoch' from (t.endtime-t.starttime))),
max(extract ('epoch' from (t.endtime-t.starttime))),
sum(extract ('epoch' from (t.endtime-t.starttime))),
avg(extract ('epoch' from (t.endtime-t.starttime)))
FROM hworkflow w, hactivity a, hactivation t
WHERE w.wkfid = a.wkfid
AND a.actid = t.actid
AND w.wkfid =432
GROUP BY a.tag`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 activities", len(res.Rows))
	}
	byTag := map[string][]Value{}
	for _, r := range res.Rows {
		byTag[r[0].(string)] = r
	}
	babel := byTag["babel1k"]
	if babel == nil {
		t.Fatal("babel1k missing")
	}
	if babel[1].(float64) != 2 || babel[2].(float64) != 4 || babel[3].(float64) != 9 ||
		math.Abs(babel[4].(float64)-3) > 1e-9 {
		t.Errorf("babel stats = %v", babel[1:])
	}
	ad := byTag["autodock41k"]
	if ad[3].(float64) != 1200 {
		t.Errorf("autodock sum = %v", ad[3])
	}
}

// Query 2 from Figure 11: .dlg files with producing workflow/activity.
func TestQuery2(t *testing.T) {
	db := seededDB(t)
	sql := `SELECT w.tag, a.tag, f.fname, f.fsize, f.fdir
FROM hworkflow w, hactivity a, hfile f
WHERE w.wkfid = a.wkfid
AND a.actid = f.actid
AND f.fname LIKE '%.dlg'
ORDER BY f.fsize DESC`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 dlg files", len(res.Rows))
	}
	if res.Rows[0][2].(string) != "COA_4BGF.dlg" {
		t.Errorf("order wrong: %v", res.Rows[0][2])
	}
	if res.Rows[0][0].(string) != "SciDock" {
		t.Errorf("workflow tag = %v", res.Rows[0][0])
	}
	out := res.Format()
	if !strings.Contains(out, "fname") || !strings.Contains(out, "(2 rows)") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestWhereComparisons(t *testing.T) {
	db := seededDB(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT taskid FROM hactivation WHERE actid = 1", 3},
		{"SELECT taskid FROM hactivation WHERE actid <> 1", 4},
		{"SELECT taskid FROM hactivation WHERE actid > 1", 4},
		{"SELECT taskid FROM hactivation WHERE actid >= 2", 4},
		{"SELECT taskid FROM hactivation WHERE actid < 2", 3},
		{"SELECT taskid FROM hactivation WHERE actid <= 2 AND taskid > 3", 2},
		{"SELECT taskid FROM hactivation LIMIT 2", 2},
	}
	for _, c := range cases {
		res, err := db.Query(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s: rows = %d, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestAggregatesWithoutGroupBy(t *testing.T) {
	db := seededDB(t)
	res, err := db.Query("SELECT count(*), min(taskid), max(taskid) FROM hactivation")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].(int64) != 7 || res.Rows[0][1].(int64) != 1 || res.Rows[0][2].(int64) != 7 {
		t.Errorf("aggregates = %v", res.Rows[0])
	}
	// Aggregate over empty set yields one row of nulls / zero count.
	res, err = db.Query("SELECT count(*), min(taskid) FROM hactivation WHERE actid = 999")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(int64) != 0 || res.Rows[0][1] != nil {
		t.Errorf("empty aggregate = %+v", res.Rows)
	}
}

func TestArithmeticAndAliases(t *testing.T) {
	db := seededDB(t)
	res, err := db.Query("SELECT fsize / 2 AS half, fsize * 2 dbl, fsize + 1 - 1 FROM hfile WHERE fileid = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "half" || res.Columns[1] != "dbl" {
		t.Errorf("aliases = %v", res.Columns)
	}
	if res.Rows[0][0].(float64) != 617 || res.Rows[0][1].(float64) != 2468 || res.Rows[0][2].(float64) != 1234 {
		t.Errorf("arithmetic = %v", res.Rows[0])
	}
}

// Arithmetic over aggregate results: timestamps subtract to seconds,
// a literal keeps its value on an empty group, NULL fails as it does
// per row.
func TestArithmeticOverAggregates(t *testing.T) {
	db, err := NewProvWfDB()
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	// 08:00:00–08:00:30 and 08:00:30–08:01:00.
	for i, start := range []time.Time{base, base.Add(30 * time.Second)} {
		if err := db.InsertActivation(int64(i+1), 1, 1, StatusFinished,
			start, start.Add(30*time.Second), "vm-1", 0, "cmd"); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		sql  string
		want []Value
	}{
		{"SELECT max(endtime) - min(starttime) FROM hactivation", []Value{60.0}},
		{"SELECT count(*) + 1 FROM hactivation WHERE taskid = 99", []Value{1.0}},
		{"SELECT 'x', 2 * count(*), count(*) FROM hactivation WHERE taskid = 99", []Value{"x", 0.0, int64(0)}},
		{"SELECT status, max(endtime) - min(endtime) FROM hactivation GROUP BY status", []Value{StatusFinished, 30.0}},
		{"SELECT max(taskid) + 1 FROM hactivation WHERE taskid = 99", nil},
	} {
		if err := checkQuery(db, c.sql); err != nil {
			t.Error(err)
		}
		res, err := db.Query(c.sql)
		if c.want == nil {
			if err == nil {
				t.Errorf("%s: arithmetic on NULL accepted: %v", c.sql, res.Rows)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if len(res.Rows) != 1 || !reflect.DeepEqual(res.Rows[0], c.want) {
			t.Errorf("%s = %v, want %v", c.sql, res.Rows, c.want)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	db := seededDB(t)
	for _, sql := range []string{
		"SELEC x FROM t",
		"SELECT x FROM missing_table",
		"SELECT missing_col FROM hfile",
		"SELECT fname FROM hfile WHERE fsize LIKE 'x'",
		"SELECT fsize/0 FROM hfile",
		"SELECT fname FROM hfile WHERE fname ~ 'x'",
		"SELECT taskid FROM hactivation GROUP BY taskid+1",
		"SELECT wkfid FROM hworkflow, hactivity", // ambiguous bare column
		"SELECT extract('century' from starttime) FROM hactivation",
	} {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("accepted bad SQL: %s", sql)
		}
	}
}

func TestUpdateAndCloseActivation(t *testing.T) {
	db := seededDB(t)
	end := time.Date(2014, 3, 1, 12, 0, 0, 0, time.UTC)
	if err := db.CloseActivation(1, StatusFailed, end, 2); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("SELECT status, failures FROM hactivation WHERE taskid = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(string) != StatusFailed || res.Rows[0][1].(int64) != 2 {
		t.Errorf("close not applied: %v", res.Rows[0])
	}
	if err := db.CloseActivation(999, StatusFinished, end, 0); err == nil {
		t.Error("closing missing activation accepted")
	}
}

func TestDockingDomainTable(t *testing.T) {
	db := seededDB(t)
	if err := db.InsertDocking(6, 432, "2HHN", "0E6", "autodock4", -7.2, 53.1, 10); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertDocking(7, 432, "1S4V", "0D6", "vina", -5.1, 9.4, 9); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(
		"SELECT ligand, count(*), avg(feb) FROM ddocking WHERE feb < 0 GROUP BY ligand ORDER BY ligand")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0][0].(string) != "0D6" || res.Rows[1][0].(string) != "0E6" {
		t.Errorf("order = %v", res.Rows)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"x.dlg", "%.dlg", true},
		{"x.dlgx", "%.dlg", false},
		{"abc", "a_c", true},
		{"abc", "a_d", false},
		{"abc", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"GOL_4C5P.dlg", "%4C5P%", true},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Errorf("like(%q, %q) = %v", c.s, c.p, got)
		}
	}
}

func TestOrderByDescAndMultiKey(t *testing.T) {
	db := seededDB(t)
	res, err := db.Query("SELECT actid, taskid FROM hactivation ORDER BY actid DESC, taskid ASC")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 3 || res.Rows[0][1].(int64) != 6 {
		t.Errorf("first row = %v", res.Rows[0])
	}
	last := res.Rows[len(res.Rows)-1]
	if last[0].(int64) != 1 || last[1].(int64) != 3 {
		t.Errorf("last row = %v", last)
	}
}

func TestConcurrentInsertAndQuery(t *testing.T) {
	db := seededDB(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		base := time.Date(2014, 3, 2, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 500; i++ {
			_ = db.InsertActivation(int64(100+i), 1, 432, StatusFinished,
				base, base.Add(time.Second), "vm-2", 0, "c")
		}
	}()
	for i := 0; i < 50; i++ {
		if _, err := db.Query("SELECT count(*) FROM hactivation"); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	res, _ := db.Query("SELECT count(*) FROM hactivation")
	if res.Rows[0][0].(int64) != 507 {
		t.Errorf("final count = %v", res.Rows[0][0])
	}
}

func TestCompareAndFormatValues(t *testing.T) {
	if compareValues(nil, int64(1)) >= 0 {
		t.Error("nil should sort first")
	}
	if compareValues(int64(2), 2.0) != 0 {
		t.Error("int/float comparable")
	}
	// NaN in PostgreSQL's order: equal to NaN, above every number.
	nan := math.NaN()
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{nan, nan, 0},
		{nan, 1.0, 1},
		{int64(1), nan, -1},
		{nan, math.Inf(1), 1},
	} {
		if got := compareValues(c.a, c.b); got != c.want {
			t.Errorf("compareValues(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	if formatValue(nil) != "" || formatValue(int64(3)) != "3" {
		t.Error("formatting broken")
	}
	if formatValue(2.50) != "2.5" {
		t.Errorf("float format = %q", formatValue(2.50))
	}
}

func TestBooleanWhereGrammar(t *testing.T) {
	db := seededDB(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT taskid FROM hactivation WHERE actid = 1 OR actid = 3", 5},
		{"SELECT taskid FROM hactivation WHERE NOT actid = 1", 4},
		{"SELECT taskid FROM hactivation WHERE (actid = 1 OR actid = 2) AND taskid > 2", 3},
		{"SELECT taskid FROM hactivation WHERE actid IN (1, 3)", 5},
		{"SELECT taskid FROM hactivation WHERE actid NOT IN (1, 3)", 2},
		{"SELECT taskid FROM hactivation WHERE (taskid + 1) > 6", 2},
		{"SELECT fname FROM hfile WHERE fname NOT LIKE '%.dlg'", 1},
		{"SELECT taskid FROM hactivation WHERE NOT (actid = 1 OR actid = 2)", 2},
		{"SELECT fname FROM hfile WHERE fname IN ('GOL_4C5P.dlg', 'missing')", 1},
	}
	for _, c := range cases {
		res, err := db.Query(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s: rows = %d, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestBooleanWhereWithJoins(t *testing.T) {
	db := seededDB(t)
	// OR across joined tables still joins correctly.
	res, err := db.Query(`SELECT t.taskid
FROM hactivity a, hactivation t
WHERE a.actid = t.actid AND (a.tag = 'babel1k' OR a.tag = 'autodock41k')
ORDER BY t.taskid`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(res.Rows))
	}
}

func TestCountDistinct(t *testing.T) {
	db := seededDB(t)
	res, err := db.Query("SELECT count(DISTINCT actid), count(actid) FROM hactivation")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].(int64) != 3 || res.Rows[0][1].(int64) != 7 {
		t.Errorf("distinct/plain counts = %v", res.Rows[0])
	}
	res, err = db.Query("SELECT status, count(DISTINCT vmid) FROM hactivation GROUP BY status")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].(int64) != 1 {
		t.Errorf("grouped distinct = %v", res.Rows)
	}
}

func TestBooleanWhereErrors(t *testing.T) {
	db := seededDB(t)
	for _, sql := range []string{
		"SELECT taskid FROM hactivation WHERE actid IN ()",
		"SELECT taskid FROM hactivation WHERE actid OR 1",
		"SELECT taskid FROM hactivation WHERE (actid = 1",
		"SELECT taskid FROM hactivation WHERE NOT",
	} {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("accepted bad SQL: %s", sql)
		}
	}
}
