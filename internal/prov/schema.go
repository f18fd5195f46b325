package prov

import (
	"fmt"
	"time"
)

// The PROV-Wf relation names used throughout SciCumulus and the
// paper's queries.
const (
	TableWorkflow   = "hworkflow"
	TableActivity   = "hactivity"
	TableActivation = "hactivation"
	TableFile       = "hfile"
	TableRelation   = "hrelation"
	TableDocking    = "ddocking" // domain table filled by extractors
)

// Activation status values recorded in hactivation.status.
const (
	StatusRunning  = "RUNNING"
	StatusFinished = "FINISHED"
	StatusFailed   = "FAILED"
	StatusAborted  = "ABORTED" // pre-execution abort (e.g. Hg guard)
)

// NewProvWfDB creates a database with the PROV-Wf schema the paper's
// queries expect, plus the domain extractor table for docking results.
func NewProvWfDB() (*DB, error) {
	db := NewDB()
	type def struct {
		name string
		cols []Column
	}
	defs := []def{
		{TableWorkflow, []Column{
			{"wkfid", TInt}, {"tag", TString}, {"description", TString},
			{"exectag", TString}, {"expdir", TString},
		}},
		{TableActivity, []Column{
			{"actid", TInt}, {"wkfid", TInt}, {"tag", TString},
			{"templatedir", TString}, {"activation", TString}, {"status", TString},
		}},
		{TableActivation, []Column{
			{"taskid", TInt}, {"actid", TInt}, {"wkfid", TInt},
			{"status", TString}, {"starttime", TTime}, {"endtime", TTime},
			{"vmid", TString}, {"failures", TInt}, {"command", TString},
		}},
		{TableFile, []Column{
			{"fileid", TInt}, {"taskid", TInt}, {"actid", TInt}, {"wkfid", TInt},
			{"fname", TString}, {"fsize", TInt}, {"fdir", TString},
		}},
		{TableRelation, []Column{
			{"relid", TInt}, {"actid", TInt}, {"relname", TString},
			{"reltype", TString}, {"filename", TString},
		}},
		{TableDocking, []Column{
			{"taskid", TInt}, {"wkfid", TInt}, {"receptor", TString},
			{"ligand", TString}, {"program", TString},
			{"feb", TFloat}, {"rmsd", TFloat}, {"nruns", TInt},
		}},
	}
	for _, d := range defs {
		if err := db.CreateTable(d.name, d.cols); err != nil {
			return nil, err
		}
	}
	declareDefaultIndexes(db)
	return db, nil
}

// declareDefaultIndexes creates hash indexes on the key columns the
// paper's Figure-10 analytical queries probe: the join/filter keys
// feed the query planner's index seeds, and taskid also makes
// CloseActivation a point update. Best-effort: tables or columns
// absent from a given database (e.g. an archive saved by an older
// build) are skipped.
func declareDefaultIndexes(db *DB) {
	for _, ix := range [...]struct{ table, col string }{
		{TableWorkflow, "wkfid"},
		{TableActivity, "actid"},
		{TableActivity, "wkfid"},
		{TableActivation, "taskid"},
		{TableActivation, "actid"},
		{TableActivation, "wkfid"},
		{TableFile, "taskid"},
		{TableFile, "actid"},
		{TableDocking, "taskid"},
		{TableDocking, "receptor"},
		{TableDocking, "ligand"},
		{TableDocking, "program"},
	} {
		//lint:ignore discarderr best-effort by design: skip tables/columns absent from older archives
		_ = db.CreateIndex(ix.table, ix.col)
	}
}

// InsertWorkflow records an hworkflow row.
func (db *DB) InsertWorkflow(wkfid int64, tag, description, exectag, expdir string) error {
	return db.Insert(TableWorkflow, []Value{wkfid, tag, description, exectag, expdir})
}

// InsertActivity records an hactivity row.
func (db *DB) InsertActivity(actid, wkfid int64, tag, templatedir, activation string) error {
	return db.Insert(TableActivity, []Value{actid, wkfid, tag, templatedir, activation, "READY"})
}

// InsertRelation records an hrelation row (the Input/Output relation
// declarations of the XML spec, Figure 2).
func (db *DB) InsertRelation(relid, actid int64, relname, reltype, filename string) error {
	return db.Insert(TableRelation, []Value{relid, actid, relname, reltype, filename})
}

// InsertActivation records one hactivation row. The engine writes
// every activation this way, once, when its outcome is known: a
// placement after its body ran, with its virtual start and end; an
// activation that never ran (steering abort, genuine failure, a
// cancelled run's tail) as a zero-length row at its ready time.
func (db *DB) InsertActivation(taskid, actid, wkfid int64, status string, start, end time.Time, vmid string, failures int64, command string) error {
	return db.Insert(TableActivation, []Value{
		taskid, actid, wkfid, status, start, end, vmid, failures, command,
	})
}

// CloseActivation updates the status/endtime/failures of an existing
// activation row. With the default taskid index this is an O(1) point
// update rather than a table scan. No production path updates a row:
// it stays for Appender.CloseActivation, which the benchmark's ingest
// probe calls.
func (db *DB) CloseActivation(taskid int64, status string, end time.Time, failures int64) error {
	n, err := db.UpdateByKey(TableActivation, "taskid", taskid,
		func(row []Value) {
			row[3] = status
			row[5] = end
			row[7] = failures
		})
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("prov: activation %d not found", taskid)
	}
	return nil
}

// InsertFile records an hfile row.
func (db *DB) InsertFile(fileid, taskid, actid, wkfid int64, fname string, fsize int64, fdir string) error {
	return db.Insert(TableFile, []Value{fileid, taskid, actid, wkfid, fname, fsize, fdir})
}

// InsertDocking records a domain extractor row: the best FEB/RMSD
// mined from a DLG file.
func (db *DB) InsertDocking(taskid, wkfid int64, receptor, ligand, program string, feb, rmsd float64, nruns int64) error {
	return db.Insert(TableDocking, []Value{taskid, wkfid, receptor, ligand, program, feb, rmsd, nruns})
}
