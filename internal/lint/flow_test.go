package lint

import (
	"os"
	"strings"
	"testing"
)

func TestLockFlow(t *testing.T) {
	const header = `package p

import "sync"

type shard struct {
	mu   sync.RWMutex
	rows []int
}
`
	cases := []struct {
		name, body string
	}{
		{"early_return_leaks_read_lock", `
func (s *shard) snapshotIf(max int) []int {
	s.mu.RLock()
	if len(s.rows) > max {
		return nil // want "s.mu.RLock\(\) acquired at .* is still held when this path returns"
	}
	out := s.rows
	s.mu.RUnlock()
	return out
}
`},
		{"fall_off_end_leaks_write_lock", `
func (s *shard) fill(v int) {
	s.mu.Lock()
	s.rows = append(s.rows, v)
} // want "s.mu.Lock\(\) acquired at .* is still held when this path reaches the end of fill"
`},
		{"all_paths_release_ok", `
func (s *shard) head(max int) int {
	s.mu.RLock()
	if len(s.rows) > max {
		s.mu.RUnlock()
		return -1
	}
	v := s.rows[0]
	s.mu.RUnlock()
	return v
}
`},
		{"deferred_release_ok", `
func (s *shard) deferred() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if len(s.rows) == 0 {
		return 0
	}
	return s.rows[0]
}
`},
		{"deferred_closure_release_ok", `
func (s *shard) deferredClosure() int {
	s.mu.Lock()
	defer func() {
		s.rows = nil
		s.mu.Unlock()
	}()
	return len(s.rows)
}
`},
		{"correlated_conditionals_stay_may_held", `
func (s *shard) maybe(locked bool) {
	if locked {
		s.mu.Lock()
	}
	s.rows = nil
	if locked {
		s.mu.Unlock()
	}
}
`},
		{"double_write_lock_deadlock", `
var gmu sync.Mutex

func relock(c bool) {
	gmu.Lock()
	if c {
		gmu.Lock() // want "gmu re-locked on a path where it is already held: self-deadlock"
	}
	gmu.Unlock()
}
`},
		{"panic_path_exempt", `
func (s *shard) mustFirst() int {
	s.mu.RLock()
	if len(s.rows) == 0 {
		panic("empty shard")
	}
	v := s.rows[0]
	s.mu.RUnlock()
	return v
}
`},
		{"cond_wait_handoff_ok", `
func pump(mu *sync.Mutex, n int, work func()) {
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		mu.Unlock()
		work()
		mu.Lock()
	}
}
`},
		{"loop_acquire_release_ok", `
func (s *shard) drain(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		s.mu.RLock()
		total += len(s.rows)
		s.mu.RUnlock()
	}
	return total
}
`},
		{"suppression", `
func (s *shard) pinned() []int {
	s.mu.RLock()
	//lint:ignore lockflow caller must invoke (*shard).release to unpin
	return s.rows
}
`},
		// The lock is taken on both arms, so it is must-held after the
		// join: no single statement list holds the whole region.
		{"locked_on_both_arms_then_send", `
func (s *shard) publish(c bool, out chan int) {
	if c {
		s.mu.Lock()
	} else {
		s.mu.Lock()
	}
	out <- len(s.rows) // want "channel send while s.mu is held"
	s.mu.Unlock()
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runCase(t, LockFlow, "fixture/lockflow", "fixture.go", header+tc.body)
		})
	}

	t.Run("blocking_while_held", func(t *testing.T) {
		runCase(t, LockFlow, "fixture/lockflow", "fixture.go", `package p

import (
	"sync"
	"time"
)

var (
	mu sync.Mutex
	ch = make(chan int)
	wg sync.WaitGroup
)

func sends() {
	mu.Lock()
	ch <- 1 // want "channel send while mu is held"
	mu.Unlock()
}

func sleeps() {
	mu.Lock()
	defer mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while mu is held"
}

func waits() {
	mu.Lock()
	wg.Wait() // want "WaitGroup.Wait while mu is held"
	mu.Unlock()
}

func relocks() {
	mu.Lock()
	mu.Lock() // want "mu re-locked on a path where it is already held"
	mu.Unlock()
}

func receives() int {
	mu.Lock()
	defer mu.Unlock()
	return <-ch // want "channel receive while mu is held"
}

func selects(done chan struct{}) {
	mu.Lock()
	defer mu.Unlock()
	select { // want "blocking select while mu is held"
	case v := <-ch:
		_ = v
	case <-done:
	}
}

func polls() {
	mu.Lock()
	defer mu.Unlock()
	select {
	case ch <- 1: // a select with a default never blocks
	default:
	}
}

func drains() {
	mu.Lock()
	defer mu.Unlock()
	for v := range ch { // want "range over channel while mu is held"
		_ = v
	}
}

func releasedFirst() {
	mu.Lock()
	n := 1
	mu.Unlock()
	ch <- n
}
`)
	})

	// sync.Cond.Wait unlocks atomically and must be called with the
	// lock held.
	t.Run("cond_wait_exempt", func(t *testing.T) {
		runCase(t, LockFlow, "fixture/lockflow", "fixture.go", `package p

import "sync"

type box struct {
	mu   sync.Mutex
	cond *sync.Cond
	full bool
}

func (b *box) waitFull() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.full {
		b.cond.Wait()
	}
}

func (b *box) signalAfter() {
	b.mu.Lock()
	b.full = true
	b.cond.Broadcast()
	b.mu.Unlock()
	b.cond.Signal()
}
`)
	})
}

func TestDetFlow(t *testing.T) {
	// The fixture path contains "internal/dock": a deterministic hot
	// path where any transitively nondeterministic helper call is a
	// finding.
	hotCases := []struct {
		name, src string
	}{
		{"unseeded_rand_via_helper", `package p

import "math/rand"

func jitter() float64 {
	return rand.Float64() // want "nondeterminism in deterministic hot path: this call draws from the math/rand global source .rand.Float64."
}

func Search() float64 {
	return jitter() // want "nondeterminism reaches deterministic hot path: call to fixture.jitter, which draws from the math/rand global source .rand.Float64."
}
`},
		{"chain_is_rendered", `package p

import "math/rand"

func jitter() float64 {
	return rand.Float64() // want "this call draws from the math/rand global source"
}

func deep() float64 {
	return jitter() // want "call to fixture.jitter, which draws from"
}

func Search() float64 {
	return deep() // want "call to fixture.deep, which calls fixture.jitter, which draws from the math/rand global source"
}
`},
		{"wall_clock_via_helper", `package p

import "time"

func stamp() int64 {
	return time.Now().UnixNano() // want "nondeterminism in deterministic hot path: this call reads the wall clock .time.Now."
}

func Tick() int64 {
	return stamp() // want "nondeterminism reaches deterministic hot path: call to fixture.stamp, which reads the wall clock .time.Now."
}
`},
		{"map_order_via_helper", `package p

func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func Emit(m map[string]int) []string {
	return keys(m) // want "call to fixture.keys, which iterates a map in nondeterministic order into an ordered collection"
}
`},
		{"sorted_keys_sanitize", `package p

import "sort"

func keysSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func Emit(m map[string]int) []string {
	return keysSorted(m)
}
`},
		{"seeded_source_sanitizes", `package p

import "math/rand"

func draw(r *rand.Rand) float64 {
	return r.Float64()
}

func Search(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return draw(r)
}
`},
		{"order_insensitive_fold_ok", `package p

func total(m map[string]int) int {
	s := 0
	for _, v := range m {
		s += v
	}
	return s
}

func Sum(m map[string]int) int {
	return total(m)
}
`},
		{"suppression", `package p

import "time"

func stamp() int64 {
	return time.Now().UnixNano() // want "this call reads the wall clock"
}

func Tick() int64 {
	//lint:ignore detflow fixture: the timing is the measured quantity
	return stamp()
}
`},
	}
	for _, tc := range hotCases {
		t.Run("hot/"+tc.name, func(t *testing.T) {
			runCase(t, DetFlow, "repro/internal/dock/fixture", "fixture.go", tc.src)
		})
	}

	// Cold path: only functions that write provenance rows are sinks.
	coldSrc := `package p

import (
	"time"

	"repro/internal/prov"
)

func stamp() int64 {
	return time.Now().UnixNano()
}

func relay() int64 {
	return stamp() // cold, not a sink: silent
}

func record(db *prov.DB, now time.Time) error {
	_ = stamp() // want "nondeterminism reaches provenance-writing function: call to detflow.stamp, which reads the wall clock"
	return db.InsertActivation(1, 1, 1, prov.StatusFinished, now, now, "vm", 0, "cmd")
}
`
	t.Run("cold/prov_sink", func(t *testing.T) {
		runCase(t, DetFlow, "fixture/detflow", "fixture.go", coldSrc)
	})

	// Direct sources in a hot package are findings at every call site;
	// seeded constructors and methods on an injected *rand.Rand are not.
	directSrc := `package p

import (
	"math/rand"
	"time"
)

func roll() int {
	return rand.Intn(6) // want "nondeterminism in deterministic hot path: this call draws from the math/rand global source .rand.Intn."
}

func stamp() time.Time {
	return time.Now() // want "nondeterminism in deterministic hot path: this call reads the wall clock .time.Now."
}

func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // constructors: exempt
	return r.Float64()                  // method on injected source: exempt
}

func elapsed(d time.Duration) time.Duration { return d * 2 }
`
	t.Run("direct/hot_path_flags", func(t *testing.T) {
		runCase(t, DetFlow, "repro/internal/dock/fixture", "fixture.go", directSrc)
	})
	t.Run("direct/cold_path_exempt", func(t *testing.T) {
		cold := wantMarkerRE.ReplaceAllString(directSrc, "")
		runCase(t, DetFlow, "repro/internal/analysis/fixture", "fixture.go", cold)
	})
	// Regression guard for the parallel search pools: per-worker seeded
	// sources must stay clean, while a global draw inside a pooled
	// goroutine is flagged.
	poolSrc := `package p

import (
	"math/rand"
	"sync"
)

func searchChains(seed int64, chains, workers int) []float64 {
	out := make([]float64, chains)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < chains; c += workers {
				r := rand.New(rand.NewSource(seed + int64(c)*104729)) // per-chain source: exempt
				out[c] = r.Float64()
			}
		}(w)
	}
	wg.Wait()
	return out
}

func jitteredChains(chains int) []float64 {
	out := make([]float64, chains)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < chains; c += 2 {
				out[c] = rand.Float64() // want "this call draws from the math/rand global source .rand.Float64."
			}
		}(w)
	}
	wg.Wait()
	return out
}
`
	t.Run("direct/worker_pool", func(t *testing.T) {
		runCase(t, DetFlow, "repro/internal/dock/fixture", "fixture.go", poolSrc)
	})
	// The engine's dataflow dispatcher is a hot path: its virtual
	// clocks come from placements, never the wall clock, and any
	// per-activation randomness must flow through a seeded source
	// keyed on the tuple. Both wall-clock reads and global draws
	// inside the dispatch loop are flagged.
	dispatcherSrc := `package p

import (
	"math/rand"
	"time"
)

type node struct{ readyAt, planCost float64 }

func dispatch(ready []*node, seed int64) float64 {
	frontier := 0.0
	for _, n := range ready {
		r := rand.New(rand.NewSource(seed ^ int64(len(ready)))) // injected source: exempt
		jitter := r.Float64() * 0

		end := n.readyAt + n.planCost + jitter
		if end > frontier {
			frontier = end
		}
	}
	return frontier
}

func dispatchWall(ready []*node) float64 {
	frontier := 0.0
	for _, n := range ready {
		now := float64(time.Now().UnixNano()) // want "this call reads the wall clock"
		tie := rand.Float64()                 // want "this call draws from the math/rand global source .rand.Float64."
		end := now + n.planCost + tie
		if end > frontier {
			frontier = end
		}
	}
	return frontier
}
`
	t.Run("direct/engine_dispatcher", func(t *testing.T) {
		runCase(t, DetFlow, "repro/internal/engine/fixture", "fixture.go", dispatcherSrc)
	})
}

// diagsFor runs a set of analyzers over one in-memory fixture and
// returns the filtered diagnostics — the harness for the seeded
// mutation tests below.
func diagsFor(t *testing.T, ans []*Analyzer, path, src string) []Diagnostic {
	t.Helper()
	pkg := checkFixture(t, path, "fixture.go", src)
	return Run([]*Package{pkg}, ans)
}

// TestDetFlowCatchesHelperRandAtCallSite seeds unseeded randomness
// behind a helper in a hot path. A syntactic check sees only the draw
// inside the helper body; detflow also reports the hot public API call
// site — the line a reviewer needs — with the chain down to the draw.
func TestDetFlowCatchesHelperRandAtCallSite(t *testing.T) {
	const src = `package p

import "math/rand"

func jitter() float64 {
	return rand.Float64() // the only line a syntactic check can see
}

func Search(x float64) float64 {
	return x + jitter() // the call site only the taint reports
}
`
	drawLine := fixtureLine(t, src, "return rand.Float64()")
	callLine := fixtureLine(t, src, "x + jitter()")

	ds := diagsFor(t, []*Analyzer{DetFlow}, "repro/internal/dock/fixture", src)
	if len(ds) != 2 || ds[0].Pos.Line != drawLine || ds[1].Pos.Line != callLine {
		t.Fatalf("detflow must flag the draw (line %d) and the call site (line %d), got %v", drawLine, callLine, ds)
	}
	if !strings.Contains(ds[1].Message, "call to fixture.jitter, which draws from the math/rand global source") {
		t.Errorf("detflow call-site message missing the chain: %s", ds[1].Message)
	}
}

// TestDetFlowCrossPackageFixture loads the on-disk fixtures and shows
// the fully interprocedural case: the nondeterministic draw lives in a
// cold package (testdata/src/noise), where it is not a finding, and
// only the call-graph taint surfaces the hot call site.
func TestDetFlowCrossPackageFixture(t *testing.T) {
	pkgs, err := Load("testdata/src/internal/dock", "testdata/src/noise")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	data, err := os.ReadFile("testdata/src/internal/dock/dock.go")
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	callLine := fixtureLine(t, string(data), "noise.Wall()")

	found := false
	for _, d := range Run(pkgs, []*Analyzer{DetFlow}) {
		if strings.Contains(d.Pos.Filename, "noise") {
			t.Errorf("detflow flagged the cold helper package: %v", d)
		}
		if strings.Contains(d.Pos.Filename, "dock.go") && d.Pos.Line == callLine {
			found = true
			if !strings.Contains(d.Message, "noise.Wall") ||
				!strings.Contains(d.Message, "draws from the math/rand global source") {
				t.Errorf("cross-package chain not rendered: %s", d.Message)
			}
		}
	}
	if !found {
		t.Errorf("detflow missed the cross-package call site at dock.go:%d", callLine)
	}
}

// TestLockFlowCatchesEarlyReturnLeakOthersMiss seeds the early-return
// read-lock leak (the TableShard snapshot bug shape). The function
// still unlocks on its other path, so no function-scoped check and no
// other analyzer in the registry fails it; only lockflow's
// path-sensitive analysis does.
func TestLockFlowCatchesEarlyReturnLeakOthersMiss(t *testing.T) {
	const good = `package p

import "sync"

type shard struct {
	mu   sync.RWMutex
	rows []int
}

func (s *shard) snapshotIf(max int) []int {
	s.mu.RLock()
	if len(s.rows) > max {
		s.mu.RUnlock()
		return nil
	}
	out := s.rows[:len(s.rows):len(s.rows)]
	s.mu.RUnlock()
	return out
}
`
	// The seeded mutation: drop the unlock on the early-return path.
	mutant := strings.Replace(good, "s.mu.RUnlock()\n\t\treturn nil", "return nil", 1)
	if mutant == good {
		t.Fatal("mutation did not apply")
	}

	var others []*Analyzer
	for _, a := range Analyzers() {
		if a != LockFlow {
			others = append(others, a)
		}
	}
	if ds := diagsFor(t, others, "fixture/lockflow", mutant); len(ds) != 0 {
		t.Errorf("other analyzers unexpectedly flag the leak mutant: %v", ds)
	}
	if ds := diagsFor(t, []*Analyzer{LockFlow}, "fixture/lockflow", good); len(ds) != 0 {
		t.Errorf("lockflow flags the correct code: %v", ds)
	}
	ds := diagsFor(t, []*Analyzer{LockFlow}, "fixture/lockflow", mutant)
	if len(ds) != 1 || !strings.Contains(ds[0].Message, "still held when this path returns") {
		t.Errorf("lockflow must flag the early-return leak, got %v", ds)
	}
	wantLine := fixtureLine(t, mutant, "return nil")
	if len(ds) == 1 && ds[0].Pos.Line != wantLine {
		t.Errorf("leak reported at line %d, want the early return at %d", ds[0].Pos.Line, wantLine)
	}
}

// fixtureLine returns the 1-based line of the first occurrence of
// needle in src.
func fixtureLine(t *testing.T, src, needle string) int {
	t.Helper()
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, needle) {
			return i + 1
		}
	}
	t.Fatalf("needle %q not in fixture", needle)
	return 0
}
