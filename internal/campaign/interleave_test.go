package campaign

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/parallel"
)

// TestManagerRandomInterleaving has a few goroutines drive one Manager
// with a seeded random mix of Submit, Cancel, Status, Query, Wait and
// List on tiny campaigns from two tenants, then shuts it down past a
// short deadline. Under -race it checks the lifecycle as a whole: every
// admitted campaign ends in exactly one terminal state (no two
// observations of a terminal campaign disagree, and none goes back to
// a live state), no List snapshot shows a campaign waiting beside a
// free slot, and the Manager leaves no CPU token, token account or
// goroutine behind.
func TestManagerRandomInterleaving(t *testing.T) {
	const workers, ops = 4, 10
	baseline := runtime.NumGoroutine()
	pool := parallel.NewPool(2)
	limits := Limits{MaxRunning: 2, MaxRunningPerTenant: 1, MaxQueuedPerTenant: 2}
	m := NewManager(pool, limits)

	var (
		mu       sync.Mutex
		ids      []int64
		terminal = map[int64]State{} // first terminal state seen, by any worker
	)
	// observe records one state seen for id; seen holds the terminal
	// states this worker has already observed.
	observe := func(seen map[int64]State, id int64, s State) {
		if prev, ok := seen[id]; ok && s != prev {
			t.Errorf("campaign %d: observed %s after terminal %s", id, s, prev)
		}
		if !s.Terminal() {
			return
		}
		seen[id] = s
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := terminal[id]; ok && prev != s {
			t.Errorf("campaign %d: terminal state %s, also observed %s", id, s, prev)
		}
		terminal[id] = s
	}
	// waited maps Wait's outcome to the terminal state it reports.
	waited := func(err error) State {
		switch {
		case err == nil:
			return StateDone
		case errors.Is(err, engine.ErrCancelled):
			return StateCancelled
		default:
			return StateFailed
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2014 + w)))
			seen := map[int64]State{}
			for i := 0; i < ops; i++ {
				mu.Lock()
				n := len(ids)
				var id int64
				if n > 0 {
					id = ids[rng.Intn(n)]
				}
				mu.Unlock()
				op := rng.Intn(6)
				if n == 0 {
					op = 0
				}
				switch op {
				case 0:
					spec := tinySpec(int64(100*w + i))
					spec.Tenant = []string{"a", "b"}[rng.Intn(2)]
					got, err := m.Submit(spec)
					if errors.Is(err, ErrQueueFull) {
						continue
					}
					if err != nil {
						t.Errorf("Submit: %v", err)
						continue
					}
					mu.Lock()
					ids = append(ids, got)
					mu.Unlock()
				case 1:
					s, err := m.Cancel(id)
					if err != nil {
						t.Errorf("Cancel(%d): %v", id, err)
						continue
					}
					if s == StateQueued || s == StateRunning {
						t.Errorf("Cancel(%d) left the campaign %s", id, s)
					}
					observe(seen, id, s)
				case 2:
					st, err := m.Status(id)
					if err != nil {
						t.Errorf("Status(%d): %v", id, err)
						continue
					}
					observe(seen, id, st.State)
				case 3:
					if _, err := m.Query(id, ProblemCountSQL); err != nil && !strings.Contains(err.Error(), "has not started") {
						t.Errorf("Query(%d): %v", id, err)
					}
				case 4:
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(rng.Intn(300))*time.Millisecond)
					_, err := m.Wait(ctx, id)
					cancel()
					if !errors.Is(err, context.DeadlineExceeded) {
						observe(seen, id, waited(err))
					}
				case 5:
					checkAdmission(t, limits, m.List())
				}
			}
		}(w)
	}
	wg.Wait()
	checkAdmission(t, limits, m.List())

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	m.Shutdown(ctx)
	cancel()

	seen := map[int64]State{}
	for _, id := range ids {
		st, err := m.Status(id)
		if err != nil {
			t.Fatalf("Status(%d): %v", id, err)
		}
		if !st.State.Terminal() {
			t.Errorf("campaign %d is %s after Shutdown", id, st.State)
		}
		observe(seen, id, st.State)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_, err = m.Wait(ctx, id)
		cancel()
		if errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("Wait(%d) still blocks after Shutdown", id)
			continue
		}
		observe(seen, id, waited(err))
	}
	if len(ids) == 0 {
		t.Fatal("no campaign was admitted")
	}
	if got := len(m.List()); got != len(ids) {
		t.Errorf("List() = %d campaigns, %d admitted", got, len(ids))
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Errorf("%d pool tokens still in use after Shutdown", inUse)
	}
	if _, _, accounts := pool.Occupancy(); accounts != 0 {
		t.Errorf("%d token accounts still open after Shutdown", accounts)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 5 s after Shutdown, %d before the test", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("%d campaigns admitted, terminal states %v", len(ids), terminal)
}

// checkAdmission holds one List snapshot, taken in one critical
// section, to the limits: no more campaigns hold a slot than they
// allow, and none waits while both the Manager and its tenant have a
// free one. A RUNNING or CANCELLING campaign holds a slot.
func checkAdmission(t *testing.T, limits Limits, sts []Status) {
	running, tenant := 0, map[string]int{}
	for _, st := range sts {
		if st.State == StateRunning || st.State == StateCancelling {
			running++
			tenant[st.Tenant]++
		}
	}
	if running > limits.MaxRunning {
		t.Errorf("%d campaigns running, limit %d", running, limits.MaxRunning)
	}
	for name, n := range tenant {
		if n > limits.MaxRunningPerTenant {
			t.Errorf("tenant %s runs %d campaigns, limit %d", name, n, limits.MaxRunningPerTenant)
		}
	}
	for _, st := range sts {
		if st.State == StateQueued && running < limits.MaxRunning && tenant[st.Tenant] < limits.MaxRunningPerTenant {
			t.Errorf("campaign %d queued beside a free slot: %d running, %d of tenant %s", st.ID, running, tenant[st.Tenant], st.Tenant)
		}
	}
}
