package prov

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"
)

// The paper's provenance database persists beyond workflow execution,
// "allow[ing] for long-term analyses over experimental data". Save
// and LoadDB serialize the embedded store so campaigns can be
// archived and re-queried later (cmd/provq's -save/-load flags).

func init() {
	// Cell values travel through an interface; register the concrete
	// types gob will see.
	gob.Register(time.Time{})
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
}

// dbSnapshot is the serialized form.
type dbSnapshot struct {
	Version int
	Tables  []tableSnapshot
}

type tableSnapshot struct {
	Name    string
	Columns []Column
	Rows    [][]Value
}

const snapshotVersion = 1

// Save writes the entire database to w. It serializes from a
// consistent multi-table snapshot; published rows are immutable, so
// the snapshot rows can be encoded directly without per-row copies
// and without blocking writers during the encode.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	names := db.tableNamesLocked()
	tabs := make([]*Table, 0, len(names))
	for _, name := range names {
		tabs = append(tabs, db.tables[name])
	}
	db.mu.RUnlock()
	snaps := captureTables(tabs)
	snap := dbSnapshot{Version: snapshotVersion}
	for _, t := range tabs {
		s := snaps[t]
		ts := tableSnapshot{Name: t.Name, Columns: t.Columns, Rows: make([][]Value, 0, s.n)}
		for i := 0; i < s.n; i++ {
			ts.Rows = append(ts.Rows, s.row(i))
		}
		snap.Tables = append(snap.Tables, ts)
	}
	if err := gob.NewEncoder(w).Encode(snap); err != nil {
		return fmt.Errorf("prov: save: %w", err)
	}
	return nil
}

// LoadDB reads a database written by Save, validating every row
// against its declared schema.
func LoadDB(r io.Reader) (*DB, error) {
	var snap dbSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("prov: load: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("prov: load: snapshot version %d, want %d", snap.Version, snapshotVersion)
	}
	db := NewDB()
	for _, ts := range snap.Tables {
		if err := db.CreateTable(ts.Name, ts.Columns); err != nil {
			return nil, err
		}
		for i, row := range ts.Rows {
			if err := db.Insert(ts.Name, row); err != nil {
				return nil, fmt.Errorf("prov: load: table %q row %d: %w", ts.Name, i, err)
			}
		}
	}
	// Archives predate (or may not follow) the PROV-Wf schema; declare
	// whatever default indexes apply so re-queries get the planner's
	// fast paths.
	declareDefaultIndexes(db)
	return db, nil
}
