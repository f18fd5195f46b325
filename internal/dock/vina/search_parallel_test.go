package vina

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/dock"
	"repro/internal/parallel"
)

// TestDockWorkersDeterministic pins the tentpole contract: chains have
// independent seeds and merge in chain order, so the result is
// byte-identical for every worker count.
func TestDockWorkersDeterministic(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(11)
	cfg.Exhaustiveness = 8
	var want string
	for _, workers := range []int{1, 2, 4, 8, 16} {
		eng := &Engine{Config: cfg, StepsPerRestart: 6, Workers: workers}
		res, err := eng.Dock(s, lig)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := fmt.Sprintf("%+v", res)
		if workers == 1 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("workers=%d result differs from sequential:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestConcurrentDockSharedScorer drives many goroutines through one
// shared Scorer (run under -race by scripts/check.sh): scorers are
// read-only after construction, so concurrent Dock calls — and the
// chain pools inside each — must not trip the race detector.
func TestConcurrentDockSharedScorer(t *testing.T) {
	rec, lig := setupPair(t, "1S4V", "042")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cfg := testConfig(int64(100 + g))
			eng := &Engine{Config: cfg, StepsPerRestart: 4, Workers: 1 + g%3}
			res, err := eng.Dock(s, lig)
			if err == nil && len(res.Runs) == 0 {
				err = fmt.Errorf("goroutine %d: no modes", g)
			}
			errs[g] = err
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestLocalOptimizeZeroAllocs pins the workspace scoring path of the
// Metropolis loop: local optimization of a warm pose allocates
// nothing.
func TestLocalOptimizeZeroAllocs(t *testing.T) {
	rec, lig := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		t.Fatal(err)
	}
	eng := &Engine{Config: testConfig(5)}
	box := dock.Box{Center: eng.Config.Center, Size: eng.Config.Size}
	ws := dock.NewWorkspace(lig)
	r := rand.New(rand.NewSource(5))
	cur := ws.Get()
	dock.RandomPoseInto(r, cur, box, lig.NumTorsions())
	eng.localOptimize(s, ws, box, cur) // warm the workspace free list
	allocs := testing.AllocsPerRun(20, func() {
		eng.localOptimize(s, ws, box, cur)
	})
	if allocs != 0 {
		t.Fatalf("localOptimize allocates %v objects/op, want 0", allocs)
	}
}

// BenchmarkLocalOptimize tracks the per-candidate evaluation cost of
// the search hot path on the reference pair and on the large one (35
// torsions): each iteration is one
// local optimization from the same fixed pose and seed. allocs/op must
// stay 0.
func BenchmarkLocalOptimize(b *testing.B) {
	for _, p := range [][2]string{{"2HHN", "0E6"}, {data.LargeReceptorCode, data.LargeLigandCode}} {
		b.Run(p[1], func(b *testing.B) {
			rec, lig := setupPair(b, p[0], p[1])
			s, err := NewScorer(rec, lig)
			if err != nil {
				b.Fatal(err)
			}
			eng := &Engine{Config: testConfig(5)}
			box := dock.Box{Center: eng.Config.Center, Size: eng.Config.Size}
			ws := dock.NewWorkspace(lig)
			r := rand.New(rand.NewSource(5))
			start, cur := ws.Get(), ws.Get()
			dock.RandomPoseInto(r, start, box, lig.NumTorsions())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur.Set(*start)
				r.Seed(5)
				eng.localOptimize(s, ws, box, cur)
			}
		})
	}
}

func BenchmarkDockSequential(b *testing.B) {
	benchDock(b, 1)
}

func BenchmarkDockParallel(b *testing.B) {
	benchDock(b, 4)
}

func benchDock(b *testing.B, workers int) {
	rec, lig := setupPair(b, "2HHN", "0E6")
	s, err := NewScorer(rec, lig)
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig(42)
	cfg.Exhaustiveness = 8
	eng := &Engine{Config: cfg, StepsPerRestart: 8, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Dock(s, lig); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDockWorkerPanicIsAnError pins the containment of the chain
// goroutines: a scorer built for a smaller ligand than the one docked
// indexes out of range inside a chain, and that must come back as
// Dock's error — on the pool path (Workers 0), on explicit goroutines
// (Workers 2) and on the caller's own (Workers 1) — with every CPU
// token returned, not as a dead process.
func TestDockWorkerPanicIsAnError(t *testing.T) {
	rec, small := setupPair(t, "2HHN", "0E6")
	_, big := setupPair(t, "2HHN", data.LargeLigandCode)
	if small.Mol.NumAtoms() >= big.Mol.NumAtoms() {
		t.Fatalf("fixture: %d atoms vs %d", small.Mol.NumAtoms(), big.Mol.NumAtoms())
	}
	s, err := NewScorer(rec, small)
	if err != nil {
		t.Fatal(err)
	}
	_, before, _ := parallel.Tokens().Occupancy()
	for _, workers := range []int{0, 1, 2} {
		cfg := testConfig(9)
		cfg.Exhaustiveness = 4
		res, err := (&Engine{Config: cfg, StepsPerRestart: 2, Workers: workers}).Dock(s, big)
		if err == nil || !strings.Contains(err.Error(), "chain 0 panicked") {
			t.Errorf("workers=%d: result %v, error %v; want chain 0's panic as the error", workers, res, err)
		}
		if _, inUse, _ := parallel.Tokens().Occupancy(); inUse != before {
			t.Errorf("workers=%d: %d tokens in use after Dock, %d before", workers, inUse, before)
		}
	}
}
