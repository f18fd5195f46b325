// Package sick is a scilint test fixture: every function below
// violates one analyzer on purpose. The package type-checks cleanly —
// the defects are semantic, which is exactly what the analyzers are
// for. testdata is invisible to go build, go vet and scilint's own
// "./..." walk; only the internal/lint and cmd/scilint tests load it.
package sick

import (
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/prov"
)

// FloatEqual compares computed floats exactly (floatcmp, error).
func FloatEqual(a, b float64) bool {
	return a == b
}

// ParsePort drops the parse error on the floor (discarderr, error).
func ParsePort(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

// Counter is mutex-guarded state used by the mutexheld cases.
type Counter struct {
	mu sync.Mutex
	n  int
}

// Leak acquires the lock and never releases it (mutexheld, error).
func (c *Counter) Leak() int {
	c.mu.Lock()
	return c.n
}

// SlowAdd sleeps inside the critical section (mutexheld, warn).
func (c *Counter) SlowAdd() {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(time.Millisecond)
	c.n++
}

// RecordRun opens a provenance activation and never closes it
// (provpair, error).
func RecordRun(db *prov.DB, now time.Time) {
	db.BeginActivation(1, 1, 1, now, "vm-0", "run")
}

// StartWorker spawns a goroutine with no shutdown path (ctxleak, warn).
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
// releases it, wedging every later flush (mutexheld, error).
func (t *TableShard) SnapshotLeak() []int {
	t.mu.RLock()
	return t.rows[:len(t.rows):len(t.rows)]
}

// SnapshotIf releases the read lock on the normal path but leaks it on
// the early return. mutexheld's function-scope heuristic is satisfied
// by the RUnlock below; only the path-sensitive analysis sees the leak
// (lockflow, error).
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
// (mutexheld, warn).
func (t *TableShard) FlushNotify(out chan []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	out <- t.rows
	t.rows = nil
}

// StartFlusher spawns a background flusher that can never be stopped
// (ctxleak, warn).
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
// path unlocks, so mutexheld's function-scope heuristic is
// satisfied; only the path-sensitive analysis sees the leak
// (lockflow, error).
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
// ever served, long after the client hung up (ctxleak, warn).
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

// tableAt2 mirrors the r²-indexed kernel lookups: the parameter is a
// squared distance.
//
//unit: r2=Å2
func tableAt2(r2 float64) float64 {
	return r2
}

// LookupEnergy feeds a plain Å distance to the r²-indexed lookup — the
// silent, physically-plausible wrong answer the unit lattice exists to
// catch (dimcheck, error).
//
//unit: r=Å
func LookupEnergy(r float64) float64 {
	return tableAt2(r)
}

// soaLane reads one pose's coordinate component out of a batched SoA
// lane.
//
//unit: result=Å
func soaLane(lane []float64, k int) float64 {
	return lane[k]
}

// BatchIntraAccum mirrors the batched pair-major intramolecular
// kernel — one atom pair, poses inner, SoA coordinate lanes — and
// takes the square root before the r²-indexed lookup: the r-vs-r²
// swap a batched rewrite invites, since r and r² both sit in scope in
// the inner loop (dimcheck, error).
func BatchIntraAccum(xs, ys, zs []float64, stride, i, j int, out []float64) {
	for p := range out {
		base := p * stride
		dx := soaLane(xs, base+i) - soaLane(xs, base+j)
		dy := soaLane(ys, base+i) - soaLane(ys, base+j)
		dz := soaLane(zs, base+i) - soaLane(zs, base+j)
		r2 := dx*dx + dy*dy + dz*dz
		r := math.Sqrt(r2)
		out[p] += tableAt2(r)
	}
}

// ScoreWindowExact promises bit-identity to a per-pose reference but
// accumulates in float32 — exactly the precision drift the directive
// forbids (exactflow, error).
//
//exact: bit-identical to the per-pose path
func ScoreWindowExact(out []float64, terms []float64) {
	var acc float32
	for _, t := range terms {
		acc += float32(t)
	}
	out[0] = float64(acc)
}

// ScorePoseExact carries the directive in the spelling gofmt leaves
// behind (a space after the slashes); its float32 narrowing must be
// flagged all the same (exactflow, error).
//
// exact: bit-identical to the batched path
func ScorePoseExact(terms []float64) float64 {
	var sum float64
	for _, t := range terms {
		sum += float64(float32(t))
	}
	return sum
}

// WindowGatherCount mirrors the incumbent-anchored gather admission
// test: it compares each atom's squared displacement from the window
// anchor against the plain Å displacement bound — Å² against Å, the
// swap that silently admits almost every pose once the bound drops
// below 1 Å and quietly widens the shared gather above it
// (dimcheck, warn).
//
//unit: bound=Å
func WindowGatherCount(xs, ys, zs, ax, ay, az []float64, bound float64) int {
	n := 0
	for k := range xs {
		dx := soaLane(xs, k) - soaLane(ax, k)
		dy := soaLane(ys, k) - soaLane(ay, k)
		dz := soaLane(zs, k) - soaLane(az, k)
		d2 := dx*dx + dy*dy + dz*dz
		if d2 <= bound {
			n++
		}
	}
	return n
}
