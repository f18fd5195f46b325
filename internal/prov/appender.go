package prov

import (
	"sync"
	"time"
)

// defaultAppendLimit is the buffered-row cap before an automatic
// flush. Small enough that a crash mid-campaign loses at most one
// batch, large enough to amortize the per-table lock.
const defaultAppendLimit = 64

// Appender batches hactivation inserts so a run of rows reaches the
// table as one InsertBatch under a single lock acquisition instead of
// one lock round-trip per row. Rows are validated at append time (same
// error behavior as direct inserts) and flushed in insertion order at
// the buffer cap and on Flush, so the final table contents are
// byte-identical to unbatched writes. The engine inserts directly;
// the benchmark's ingest probe is the appender's only caller.
type Appender struct {
	db    *DB
	limit int

	mu   sync.Mutex
	rows [][]Value // pending hactivation rows
}

// NewAppender wraps db in a buffered appender; limit <= 0 selects the
// default buffer cap.
func NewAppender(db *DB, limit int) *Appender {
	if limit <= 0 {
		limit = defaultAppendLimit
	}
	return &Appender{db: db, limit: limit}
}

// add validates and buffers one hactivation row; the caller holds a.mu
// and must not retain the slice.
func (a *Appender) add(row []Value) error {
	t, err := a.db.lookupTable(TableActivation)
	if err != nil {
		return err
	}
	if err := t.checkRow(TableActivation, row); err != nil {
		return err
	}
	a.rows = append(a.rows, row)
	return nil
}

// flushLocked drains the buffer in insertion order.
func (a *Appender) flushLocked() error {
	if len(a.rows) == 0 {
		return nil
	}
	if err := a.db.InsertBatch(TableActivation, a.rows); err != nil {
		return err
	}
	a.rows = a.rows[:0]
	return nil
}

// Flush publishes all buffered rows to the database.
func (a *Appender) Flush() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushLocked()
}

// InsertActivation buffers an hactivation row (see
// DB.InsertActivation).
func (a *Appender) InsertActivation(taskid, actid, wkfid int64, status string, start, end time.Time, vmid string, failures int64, command string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.add([]Value{
		taskid, actid, wkfid, status, start, end, vmid, failures, command,
	}); err != nil {
		return err
	}
	if len(a.rows) >= a.limit {
		return a.flushLocked()
	}
	return nil
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
