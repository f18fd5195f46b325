package ad4

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/chem"
	"repro/internal/dock"
	"repro/internal/parallel"
	"repro/internal/prep"
)

// TestDockWorkersDeterministic pins the tentpole contract: GA runs
// have independent seeds and land in run order, so the result is
// byte-identical for every worker count.
func TestDockWorkersDeterministic(t *testing.T) {
	maps, lig, box := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	params := prep.DefaultDPF("l", "f", 321)
	params.Runs, params.PopSize, params.Gens, params.Evals = 6, 14, 5, 2500
	var want string
	for _, workers := range []int{1, 2, 4, 8, 16} {
		eng := &Engine{Params: params, Box: box, Workers: workers}
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
// shared Scorer and grid.Maps (run under -race by scripts/check.sh):
// both are read-only after construction, so concurrent Dock calls —
// and the run pools inside each — must not trip the race detector.
func TestConcurrentDockSharedScorer(t *testing.T) {
	maps, lig, box := setupPair(t, "1S4V", "042")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			params := prep.DefaultDPF("l", "f", int64(500+g))
			params.Runs, params.PopSize, params.Gens, params.Evals = 2, 10, 3, 800
			eng := &Engine{Params: params, Box: box, Workers: 1 + g%3}
			res, err := eng.Dock(s, lig)
			if err == nil && len(res.Runs) != 2 {
				err = fmt.Errorf("goroutine %d: %d runs", g, len(res.Runs))
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

// TestSolisWetsZeroAllocs pins the Lamarckian local-search hot path:
// refining a pose through the workspace allocates nothing.
func TestSolisWetsZeroAllocs(t *testing.T) {
	maps, lig, box := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	params := prep.DefaultDPF("l", "f", 1)
	params.LocalIts = 30
	eng := &Engine{Params: params, Box: box}
	ws := dock.NewWorkspace(lig)
	r := rand.New(rand.NewSource(9))
	p := ws.Get()
	dock.RandomPoseInto(r, p, box, lig.NumTorsions())
	feb := s.Score(lig.Coords(*p))
	evals := 0
	feb = eng.solisWets(r, s, ws, p, feb, &evals) // warm the free list
	allocs := testing.AllocsPerRun(20, func() {
		feb = eng.solisWets(r, s, ws, p, feb, &evals)
	})
	if allocs != 0 {
		t.Fatalf("solisWets allocates %v objects/op, want 0", allocs)
	}
}

// BenchmarkSolisWets tracks the AD4 local-search cost; allocs/op must
// stay 0.
func BenchmarkSolisWets(b *testing.B) {
	maps, lig, box := setupPair(b, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		b.Fatal(err)
	}
	params := prep.DefaultDPF("l", "f", 1)
	params.LocalIts = 30
	eng := &Engine{Params: params, Box: box}
	ws := dock.NewWorkspace(lig)
	r := rand.New(rand.NewSource(9))
	p := ws.Get()
	dock.RandomPoseInto(r, p, box, lig.NumTorsions())
	feb := s.Score(lig.Coords(*p))
	evals := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feb = eng.solisWets(r, s, ws, p, feb, &evals)
	}
}

func BenchmarkDockSequential(b *testing.B) {
	benchDock(b, 1)
}

func BenchmarkDockParallel(b *testing.B) {
	benchDock(b, 4)
}

func benchDock(b *testing.B, workers int) {
	maps, lig, box := setupPair(b, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		b.Fatal(err)
	}
	params := prep.DefaultDPF("l", "f", 42)
	params.Runs, params.PopSize, params.Gens, params.Evals = 4, 20, 6, 3000
	eng := &Engine{Params: params, Box: box, Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Dock(s, lig); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDockWorkerPanicIsAnError pins the containment of the run
// goroutines: a scorer built for a smaller ligand than the one docked
// indexes out of range inside a run, and that must come back as Dock's
// error — on the pool path (Workers 0), on explicit goroutines
// (Workers 2) and on the caller's own (Workers 1) — with every CPU
// token returned, not as a dead process.
func TestDockWorkerPanicIsAnError(t *testing.T) {
	maps, small, box := setupPair(t, "2HHN", "0E6")
	// The docked ligand is the scorer's with one more atom of a type the
	// maps already cover.
	grown := small.Mol.Clone()
	last := len(grown.Atoms) - 1
	extra := grown.Atoms[last]
	extra.Pos = extra.Pos.Add(chem.V(1.5, 0, 0))
	grown.Atoms = append(grown.Atoms, extra)
	grown.Bonds = append(grown.Bonds, chem.Bond{A: last, B: last + 1, Order: chem.Single})
	tree, err := chem.BuildTorsionTree(grown)
	if err != nil {
		t.Fatal(err)
	}
	big, err := dock.NewLigand(grown, tree)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScorer(maps, small)
	if err != nil {
		t.Fatal(err)
	}
	_, before, _ := parallel.Tokens().Occupancy()
	for _, workers := range []int{0, 1, 2} {
		params := prep.DefaultDPF("l", "f", 9)
		params.Runs, params.PopSize, params.Gens, params.Evals = 4, 10, 3, 800
		res, err := (&Engine{Params: params, Box: box, Workers: workers}).Dock(s, big)
		if err == nil || !strings.Contains(err.Error(), "run 1 panicked") {
			t.Errorf("workers=%d: result %v, error %v; want run 1's panic as the error", workers, res, err)
		}
		if _, inUse, _ := parallel.Tokens().Occupancy(); inUse != before {
			t.Errorf("workers=%d: %d tokens in use after Dock, %d before", workers, inUse, before)
		}
	}
}

// TestDockStatsEvaluationsOnly pins what AD4 reports of its work: the
// poses it scored — at least the initial populations, at most the
// Evals budget plus the local searches it may overrun by and the final
// refinements — and nothing in the counters of an incremental
// evaluator it does not have.
func TestDockStatsEvaluationsOnly(t *testing.T) {
	maps, lig, box := setupPair(t, "2HHN", "0E6")
	s, err := NewScorer(maps, lig)
	if err != nil {
		t.Fatal(err)
	}
	params := prep.DefaultDPF("l", "f", 5)
	params.Runs, params.PopSize, params.Gens, params.Evals = 3, 12, 4, 1500
	res, err := (&Engine{Params: params, Box: box, Workers: 2}).Dock(s, lig)
	if err != nil {
		t.Fatal(err)
	}
	evals := res.Stats.Evaluations
	lo := int64(params.Runs * params.PopSize)
	hi := int64(params.Runs * (params.Evals + 2*params.LocalIts))
	if evals < lo || evals > hi {
		t.Errorf("%d evaluations, want within [%d, %d]", evals, lo, hi)
	}
	if want := (dock.Stats{Evaluations: evals}); res.Stats != want {
		t.Errorf("AD4 filled more than Evaluations: %+v", res.Stats)
	}
}
