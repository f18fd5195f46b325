package prov

import (
	"sync"
	"time"
)

// defaultAppendLimit is the buffered-row cap before an automatic
// flush. Small enough that a crash mid-campaign loses at most one
// batch, large enough to amortize the per-table lock.
const defaultAppendLimit = 64

// Appender batches provenance inserts so a run of rows reaches each
// table as one InsertBatch under a single lock acquisition instead of
// one lock round-trip per row. Rows are validated at append time (same
// error behavior as direct inserts) and flushed in insertion order at
// the buffer cap and on Flush, so the final table contents are
// byte-identical to unbatched writes. The engine inserts directly;
// the benchmark's ingest probe is the appender's only caller.
type Appender struct {
	db    *DB
	limit int

	mu    sync.Mutex
	order []string             // tables in first-append order
	buf   map[string][][]Value // pending rows per table
	n     int
}

// NewAppender wraps db in a buffered appender; limit <= 0 selects the
// default buffer cap.
func NewAppender(db *DB, limit int) *Appender {
	if limit <= 0 {
		limit = defaultAppendLimit
	}
	return &Appender{
		db:    db,
		limit: limit,
		buf:   make(map[string][][]Value),
	}
}

// add validates and buffers one row; the caller holds a.mu and must
// not retain the slice.
func (a *Appender) add(table string, row []Value) error {
	t, err := a.db.lookupTable(table)
	if err != nil {
		return err
	}
	if err := t.checkRow(table, row); err != nil {
		return err
	}
	if _, ok := a.buf[table]; !ok {
		a.order = append(a.order, table)
	}
	a.buf[table] = append(a.buf[table], row)
	a.n++
	return nil
}

// flushLocked drains every buffered table in first-append order.
func (a *Appender) flushLocked() error {
	for _, table := range a.order {
		rows := a.buf[table]
		if len(rows) == 0 {
			continue
		}
		if err := a.db.InsertBatch(table, rows); err != nil {
			return err
		}
		a.buf[table] = rows[:0]
	}
	a.n = 0
	return nil
}

func (a *Appender) maybeFlushLocked() error {
	if a.n >= a.limit {
		return a.flushLocked()
	}
	return nil
}

// Flush publishes all buffered rows to the database.
func (a *Appender) Flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushLocked()
}

// Pending returns the number of buffered, not-yet-flushed rows.
func (a *Appender) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// InsertActivation buffers an hactivation row (see
// DB.InsertActivation).
func (a *Appender) InsertActivation(taskid, actid, wkfid int64, status string, start, end time.Time, vmid string, failures int64, command string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.add(TableActivation, []Value{
		taskid, actid, wkfid, status, start, end, vmid, failures, command,
	}); err != nil {
		return err
	}
	return a.maybeFlushLocked()
}

// BeginActivation buffers a RUNNING hactivation row whose endtime is
// provisionally its start. The engine never writes one; it stays for
// the benchmark's ingest probe, which times the open-then-close cycle.
func (a *Appender) BeginActivation(taskid, actid, wkfid int64, start time.Time, vmid, command string) error {
	return a.InsertActivation(taskid, actid, wkfid, StatusRunning, start, start, vmid, 0, command)
}

// CloseActivation flushes the buffer, then completes the activation
// through the database's indexed point update (DB.CloseActivation).
// Like BeginActivation, it stays only for the benchmark's ingest probe.
func (a *Appender) CloseActivation(taskid int64, status string, end time.Time, failures int64) error {
	if err := a.Flush(); err != nil {
		return err
	}
	return a.db.CloseActivation(taskid, status, end, failures)
}

// InsertFile buffers an hfile row (see DB.InsertFile).
func (a *Appender) InsertFile(fileid, taskid, actid, wkfid int64, fname string, fsize int64, fdir string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.add(TableFile, []Value{fileid, taskid, actid, wkfid, fname, fsize, fdir}); err != nil {
		return err
	}
	return a.maybeFlushLocked()
}

// InsertDocking buffers a ddocking extractor row (see
// DB.InsertDocking).
func (a *Appender) InsertDocking(taskid, wkfid int64, receptor, ligand, program string, feb, rmsd float64, nruns int64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.add(TableDocking, []Value{taskid, wkfid, receptor, ligand, program, feb, rmsd, nruns}); err != nil {
		return err
	}
	return a.maybeFlushLocked()
}
