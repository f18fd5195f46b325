package tables

import (
	"sync"
	"testing"

	"repro/internal/chem"
)

// freshCache gives a test an empty cache and empties it again when the
// test ends, so the tables it builds do not outlive it.
func freshCache(t *testing.T) {
	ResetCache()
	t.Cleanup(ResetCache)
}

// TestInternContract: over every table kind and every pair of
// supported types, a lookup returns a table bit-equal to a fresh
// tabulation of its potential, and two lookups return the same
// *Radial exactly when those tabulations are Float64bits-equal.
func TestInternContract(t *testing.T) {
	freshCache(t)
	type entry struct {
		name string
		got  *Radial
	}
	var entries []entry
	add := func(name string, got *Radial, f func(r float64) float64) {
		if !got.sameBits(NewRadial(f)) {
			t.Fatalf("%s: cached table differs from a fresh tabulation", name)
		}
		entries = append(entries, entry{name, got})
	}
	types := chem.AllTypes()
	for i, a := range types {
		for _, b := range types[i:] {
			pa, pb := a.Params(), b.Params()
			pair := string(a) + "," + string(b)
			add("AD4Smoothed("+pair+")", AD4Smoothed(a, b), func(r float64) float64 {
				return PairEnergySmoothed(pa, pb, max(r, RMin), SmoothRadius)
			})
			add("AD4Pair("+pair+")", AD4Pair(a, b), func(r float64) float64 {
				return PairEnergy(pa, pb, max(r, RMin))
			})
			add("Vina("+pair+")", Vina(a, b), func(r float64) float64 {
				return VinaPair(pa, pb, r)
			})
		}
	}
	add("Electrostatic", Electrostatic(), func(r float64) float64 { return ElecScale(max(r, RMin)) })
	add("Desolvation", Desolvation(), func(r float64) float64 { return DesolvWeight(max(r, RMin)) })

	// Same pointer ⇒ equal bits holds by construction; check equal bits
	// ⇒ same pointer. Tables with different hashes differ; within one
	// hash, compare the nodes.
	byHash := make(map[uint64][]*Radial)
	distinct := make(map[*Radial]bool)
	for _, e := range entries {
		if distinct[e.got] {
			continue
		}
		distinct[e.got] = true
		h := e.got.contentHash()
		for _, u := range byHash[h] {
			if u.sameBits(e.got) {
				t.Fatalf("%s: two distinct tables hold the same bits", e.name)
			}
		}
		byHash[h] = append(byHash[h], e.got)
	}
	if keys, tbls := CacheCounts(); keys != len(entries) || tbls != len(distinct) {
		t.Fatalf("cache holds %d keys over %d tables, looked up %d keys over %d tables",
			keys, tbls, len(entries), len(distinct))
	}
	t.Logf("%d keys, %d distinct tables", len(entries), len(distinct))
	if len(distinct) == len(entries) {
		t.Error("no two keys share a table; C and A share AD4 parameters")
	}
	// The parameter facts the sharing rests on.
	if AD4Pair(chem.TypeC, chem.TypeOA) != AD4Pair(chem.TypeA, chem.TypeOA) {
		t.Error("AD4Pair(C,OA) and AD4Pair(A,OA) are separate tables")
	}
	if Vina(chem.TypeC, chem.TypeC) == Vina(chem.TypeC, chem.TypeN) {
		t.Error("Vina(C,C) and Vina(C,N) share a table")
	}
}

// TestInternConcurrentBuilders: goroutines that build one key at once,
// and goroutines that build another key with the same bits, all end
// with one pointer (run under -race in the gate).
func TestInternConcurrentBuilders(t *testing.T) {
	freshCache(t)
	const workers = 8
	got := make([]*Radial, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if w%2 == 0 {
				got[w] = AD4Smoothed(chem.TypeC, chem.TypeOA)
			} else {
				got[w] = AD4Smoothed(chem.TypeA, chem.TypeOA)
			}
		}()
	}
	close(start)
	wg.Wait()
	for w, p := range got {
		if p != got[0] {
			t.Fatalf("builder %d ended with %p, builder 0 with %p", w, p, got[0])
		}
	}
	if keys, tbls := CacheCounts(); keys != 2 || tbls != 1 {
		t.Errorf("cache holds %d keys over %d tables, want 2 over 1", keys, tbls)
	}
}
