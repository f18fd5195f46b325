package prov

import (
	"fmt"
	"testing"
	"time"
)

// benchDB builds a provenance DB with n open (RUNNING) activations;
// unindexed drops the default hash indexes.
func benchDB(b *testing.B, n int, unindexed bool) *DB {
	b.Helper()
	db, err := NewProvWfDB()
	if err != nil {
		b.Fatal(err)
	}
	if unindexed {
		bare := NewDB()
		for _, name := range db.TableNames() {
			if err := bare.CreateTable(name, db.tables[name].Columns); err != nil {
				b.Fatal(err)
			}
		}
		db = bare
	}
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	for i := 1; i <= n; i++ {
		if err := db.InsertActivation(int64(i), 1, 1, StatusRunning, base, base, "vm-1", 0, "cmd"); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkCloseActivation measures the activation-close hot path at
// the paper's sweep scale (80k open activations): the indexed O(1)
// point update against the full-table scan UpdateByKey falls back to
// without a taskid index (the seed implementation's cost).
func BenchmarkCloseActivation(b *testing.B) {
	const n = 80_000
	end := time.Date(2014, 3, 1, 9, 0, 0, 0, time.UTC)
	b.Run("indexed", func(b *testing.B) {
		db := benchDB(b, n, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			taskid := int64(i%n + 1)
			if err := db.CloseActivation(taskid, StatusFinished, end, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		db := benchDB(b, n, true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			taskid := int64(i%n + 1)
			if err := db.CloseActivation(taskid, StatusFinished, end, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkQueryPoint is an indexed single-row lookup; ReportAllocs
// pins the no-O(rows)-allocation property of the zero-copy snapshot.
func BenchmarkQueryPoint(b *testing.B) {
	db := benchDB(b, 80_000, false)
	sql := fmt.Sprintf("SELECT status, vmid FROM hactivation WHERE taskid = %d", 79_999)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkQueryAggregate scans and groups the whole table — the
// Figure-5 histogram shape. Allocations must stay O(groups), not
// O(rows).
func BenchmarkQueryAggregate(b *testing.B) {
	db := benchDB(b, 20_000, false)
	sql := "SELECT status, count(*) FROM hactivation GROUP BY status"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsert measures single-row ingest into an indexed table.
func BenchmarkInsert(b *testing.B) {
	db := benchDB(b, 0, false)
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.InsertActivation(int64(i+1), 1, 1, StatusFinished,
			base, base, "vm-1", 0, "cmd"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppenderIngest measures the engine-facing batched path: one
// terminal activation row per placement through the buffered appender.
func BenchmarkAppenderIngest(b *testing.B) {
	db := benchDB(b, 0, false)
	app := NewAppender(db, 0)
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	end := base.Add(time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		taskid := int64(i + 1)
		if err := app.InsertActivation(taskid, 1, 1, StatusFinished, base, end, "vm-1", 0, "cmd"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := app.Flush(); err != nil {
		b.Fatal(err)
	}
}
