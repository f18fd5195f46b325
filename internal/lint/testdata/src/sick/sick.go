// Package sick is a scilint test fixture: every function below
// violates one analyzer on purpose. The package type-checks cleanly —
// the defects are semantic, which is exactly what the analyzers are
// for. testdata is invisible to go build, go vet and scilint's own
// "./..." walk; only the internal/lint and cmd/scilint tests load it.
package sick

import (
	"strconv"
	"sync"
	"time"
)

// FloatEqual compares computed floats exactly (floatcmp).
func FloatEqual(a, b float64) bool {
	return a == b
}

// ParsePort drops the parse error on the floor (discarderr).
func ParsePort(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

// Counter is mutex-guarded state used by the lockflow cases.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Leak acquires the lock and never releases it (lockflow).
func (c *Counter) Leak() int {
	c.mu.Lock()
	return c.n
}

// SlowAdd sleeps inside the critical section (lockflow).
func (c *Counter) SlowAdd() {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(time.Millisecond)
	c.n++
}

// StartWorker spawns a goroutine with no shutdown path (ctxleak).
func StartWorker(c *Counter) {
	go func() {
		for {
			c.SlowAdd()
		}
	}()
}

// TableShard mirrors the provenance store's per-table layout: a row
// slice guarded by an RWMutex, snapshotted by readers and drained by a
// buffered-appender flush. The three methods below get each half of
// that protocol wrong.
type TableShard struct {
	mu   sync.RWMutex
	rows []int
}

// SnapshotLeak takes the read lock for a zero-copy snapshot and never
// releases it, wedging every later flush (lockflow).
func (t *TableShard) SnapshotLeak() []int {
	t.mu.RLock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// SnapshotIf releases the read lock on the normal path but leaks it on
// the early return. A function-scope check is satisfied by the RUnlock
// below; only the path-sensitive analysis sees the leak (lockflow).
func (t *TableShard) SnapshotIf(max int) []int {
	t.mu.RLock()
	if len(t.rows) > max {
		return nil
	}
	rows := t.rows[:len(t.rows):len(t.rows)]
	t.mu.RUnlock()
	return rows
}

// FlushNotify hands the drained batch to the consumer while still
// holding the table lock; a slow consumer convoys every writer
// (lockflow).
func (t *TableShard) FlushNotify(out chan []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out <- t.rows
	t.rows = nil
}

// StartFlusher spawns a background flusher that can never be stopped
// (ctxleak).
func (t *TableShard) StartFlusher(out chan []int) {
	go func() {
		for {
			t.FlushNotify(out)
		}
	}()
}

// CampaignQueue mirrors the campaign service's admission surface: a
// FIFO queue under one mutex, HTTP handlers that spawn per-request
// work. The two handlers below get each half of that protocol wrong.
type CampaignQueue struct {
	mu    sync.Mutex
	queue []int
	max   int
	stats int
}

// HandleSubmit admits a campaign but leaks the admission lock on the
// queue-full early return, wedging every later submit. The happy
// path unlocks, so a function-scope check is satisfied; only the
// path-sensitive analysis sees the leak (lockflow).
func (q *CampaignQueue) HandleSubmit(id int) bool {
	q.mu.Lock()
	if len(q.queue) >= q.max {
		return false
	}
	q.queue = append(q.queue, id)
	q.mu.Unlock()
	return true
}

// HandleWatch spawns a per-request progress publisher with no
// shutdown path: one goroutine leaks for every watcher the handler
// ever served, long after the client hung up (ctxleak).
func (q *CampaignQueue) HandleWatch() {
	go func() {
		for {
			q.bump()
		}
	}()
}

func (q *CampaignQueue) bump() {
	q.mu.Lock()
	q.stats++
	q.mu.Unlock()
}
