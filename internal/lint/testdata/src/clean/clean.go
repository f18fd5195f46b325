// Package clean is the true-negative scilint fixture: it exercises
// the same constructs as the sick fixture — float comparison, error
// handling, mutex regions, worker goroutines —
// written the way the analyzers want them, and must produce zero
// findings.
package clean

import (
	"math"
	"sort"
	"strconv"
	"sync"
)

// AlmostEqual is the epsilon comparison floatcmp asks for.
func AlmostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// ParsePort propagates the parse error instead of discarding it.
func ParsePort(s string) (int, error) {
	return strconv.Atoi(s)
}

// Counter is mutex-guarded state with a disciplined critical section.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Add holds the lock only for the in-memory increment.
func (c *Counter) Add() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// StartWorker ranges over a closable job channel, so closing jobs
// shuts the goroutine down.
func StartWorker(c *Counter, jobs <-chan struct{}) {
	go func() {
		for range jobs {
			c.Add()
		}
	}()
}

// TableShard is the disciplined counterpart of the sick fixture's
// shard: per-table RWMutex, snapshot under a paired read lock, flush
// that moves the batch out of the critical section before blocking.
type TableShard struct {
	mu   sync.RWMutex
	rows []int
}

// Snapshot releases the read lock on every path.
func (t *TableShard) Snapshot() []int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// SnapshotIf releases the read lock on the early-return path too — the
// disciplined counterpart of the sick fixture's leak.
func (t *TableShard) SnapshotIf(max int) []int {
	t.mu.RLock()
	if len(t.rows) > max {
		t.mu.RUnlock()
		return nil
	}
	rows := t.rows[:len(t.rows):len(t.rows)]
	t.mu.RUnlock()
	return rows
}

// Flush detaches the batch under the lock and sends it after the
// release, so a slow consumer never holds up writers.
func (t *TableShard) Flush(out chan []int) {
	t.mu.Lock()
	batch := t.rows
	t.rows = nil
	t.mu.Unlock()
	out <- batch
}

// StartFlusher ranges over a closable tick channel, so closing ticks
// shuts the flusher down.
func (t *TableShard) StartFlusher(ticks <-chan struct{}, out chan []int) {
	go func() {
		for range ticks {
			t.Flush(out)
		}
	}()
}

// CampaignQueue is the disciplined counterpart of the sick fixture's
// admission surface: early returns release the lock, per-request
// goroutines observe a stop channel.
type CampaignQueue struct {
	mu    sync.Mutex
	queue []int
	max   int
}

// HandleSubmit releases the admission lock on the queue-full early
// return too, via defer.
func (q *CampaignQueue) HandleSubmit(id int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.queue) >= q.max {
		return false
	}
	q.queue = append(q.queue, id)
	return true
}

// HandleWatch ties the per-request progress publisher to a stop
// channel (the request context's Done surrogate), so a hung-up
// client retires its goroutine.
func (q *CampaignQueue) HandleWatch(stop <-chan struct{}, events chan<- int) {
	go func() {
		for {
			select {
			case <-stop:
				return
			case events <- q.depth():
			}
		}
	}()
}

func (q *CampaignQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queue)
}

// SortedKeys collects map keys and sorts them, so the iteration order
// never reaches the output — the sanitized idiom detflow accepts.
func SortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
