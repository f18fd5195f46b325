package prov

import (
	"bytes"
	"testing"
)

// The tests below each drive one path that takes a lock and that no
// other test follows with a writer, then assert that every lock is free
// again: a read lock kept on such a path would wedge every later
// CreateTable or insert, and no test would notice.

// requireUnlocked fails the test unless the table map's lock and every
// table's lock can be taken for writing.
func requireUnlocked(t *testing.T, db *DB, after string) {
	t.Helper()
	if !db.mu.TryLock() {
		t.Fatalf("db.mu still held after %s", after)
	}
	tabs := make([]*Table, 0, len(db.tables))
	for _, tab := range db.tables {
		tabs = append(tabs, tab)
	}
	db.mu.Unlock()
	for _, tab := range tabs {
		if !tab.mu.TryLock() {
			t.Fatalf("table %s's mu still held after %s", tab.Name, after)
		}
		tab.mu.Unlock()
	}
}

// lockTestDB is a database with one table of one row.
func lockTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	if err := db.CreateTable("known", []Column{{Name: "x", Type: TInt}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("known", []Value{int64(1)}); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryUnknownTableReleasesLock drives the snapshot path that fails
// on an unknown FROM table.
func TestQueryUnknownTableReleasesLock(t *testing.T) {
	db := lockTestDB(t)
	if _, err := db.Query("SELECT k.x FROM known k, nosuch n"); err == nil {
		t.Fatal("query of an unknown table succeeded")
	}
	requireUnlocked(t, db, "a query of an unknown table")
}

// TestReadersReleaseLock drives the readers no test follows with a
// writer: Query, Save, NumRows and TableNames.
func TestReadersReleaseLock(t *testing.T) {
	for name, read := range map[string]func(*DB){
		"Query": func(db *DB) {
			if _, err := db.Query("SELECT x FROM known"); err != nil {
				t.Fatal(err)
			}
		},
		"Save": func(db *DB) {
			if err := db.Save(&bytes.Buffer{}); err != nil {
				t.Fatal(err)
			}
		},
		"NumRows":    func(db *DB) { db.NumRows("known") },
		"TableNames": func(db *DB) { db.TableNames() },
	} {
		db := lockTestDB(t)
		read(db)
		requireUnlocked(t, db, name)
	}
}
