package tables

import (
	"sync"

	"repro/internal/chem"
)

// kind discriminates the cached table families.
type kind uint8

const (
	kindAD4Smoothed kind = iota
	kindAD4Raw
	kindVina
	kindElec
	kindDesolv
)

// key identifies one table. Pair potentials are symmetric, so pair
// keys are normalized to a ≤ b before lookup.
type key struct {
	k    kind
	a, b chem.AtomType
}

// cache holds every built table for the process lifetime. Tables are
// pure functions of the force-field parameters, so the first builder
// to finish wins and every later caller shares the same node slice.
var cache sync.Map // key -> *Radial

func lookup(k key, build func() *Radial) *Radial {
	if v, ok := cache.Load(k); ok {
		return v.(*Radial)
	}
	v, _ := cache.LoadOrStore(k, build())
	return v.(*Radial)
}

func pairKey(k kind, a, b chem.AtomType) key {
	if b < a {
		a, b = b, a
	}
	return key{k: k, a: a, b: b}
}

// AD4Smoothed returns the AutoGrid-smoothed AD4 dispersion/H-bond
// potential for a (probe, receptor) type pair, with the r ≥ RMin clamp
// baked in — exactly what map generation accumulates per lattice
// point.
func AD4Smoothed(probe, rec chem.AtomType) *Radial {
	pa, pb := probe.Params(), rec.Params()
	return lookup(pairKey(kindAD4Smoothed, probe, rec), func() *Radial {
		return NewRadial(func(r float64) float64 {
			if r < RMin {
				r = RMin
			}
			return PairEnergySmoothed(pa, pb, r, SmoothRadius)
		})
	})
}

// AD4Pair returns the unsmoothed AD4 pair potential with the r ≥ RMin
// clamp baked in — the form the AD4 intramolecular energy uses.
func AD4Pair(a, b chem.AtomType) *Radial {
	pa, pb := a.Params(), b.Params()
	return lookup(pairKey(kindAD4Raw, a, b), func() *Radial {
		return NewRadial(func(r float64) float64 {
			if r < RMin {
				r = RMin
			}
			return PairEnergy(pa, pb, r)
		})
	})
}

// Vina returns the Vina pairwise term for a type pair. No distance
// clamp: the analytic form is finite everywhere, and sub-RMin queries
// only arise in deep clashes the optimizer rejects anyway.
func Vina(a, b chem.AtomType) *Radial {
	pa, pb := a.Params(), b.Params()
	return lookup(pairKey(kindVina, a, b), func() *Radial {
		return NewRadial(func(r float64) float64 {
			return VinaPair(pa, pb, r)
		})
	})
}

// Electrostatic returns the unit-charge Mehler–Solmajer Coulomb table
// (multiply by the receptor atom's charge), r ≥ RMin clamp baked in.
func Electrostatic() *Radial {
	return lookup(key{k: kindElec}, func() *Radial {
		return NewRadial(func(r float64) float64 {
			if r < RMin {
				r = RMin
			}
			return ElecScale(r)
		})
	})
}

// Desolvation returns the gaussian desolvation weight table (multiply
// by DesolvCoeff of the receptor atom), r ≥ RMin clamp baked in.
func Desolvation() *Radial {
	return lookup(key{k: kindDesolv}, func() *Radial {
		return NewRadial(func(r float64) float64 {
			if r < RMin {
				r = RMin
			}
			return DesolvWeight(r)
		})
	})
}
