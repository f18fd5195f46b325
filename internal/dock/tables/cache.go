package tables

import (
	"math"
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
// to finish wins and every later caller shares the same node array.
var cache sync.Map // key -> *Radial

// interned holds one *Radial per distinct node content, bucketed by
// contentHash. Several keys often tabulate identical bits — AD4 gives
// C and A the same Rii/Epsii, N/NA, S/SA and H/HD differ only in
// H-bond pairings that a given partner may not have, and Vina's term
// reads only the radius sum and two flags — so keys share one table
// and one cache footprint.
var interned struct {
	sync.Mutex
	m map[uint64][]*Radial
}

func lookup(k key, build func() *Radial) *Radial {
	if v, ok := cache.Load(k); ok {
		return v.(*Radial)
	}
	// Interning before the store makes racing builders of one key
	// converge on one pointer whichever of them stores.
	v, _ := cache.LoadOrStore(k, intern(build()))
	return v.(*Radial)
}

// intern returns the interned table whose nodes are bit-equal to t's,
// interning t if there is none. Nodes compare by math.Float64bits, so
// +0 and −0, or two NaN payloads, never merge.
func intern(t *Radial) *Radial {
	h := t.contentHash()
	interned.Lock()
	defer interned.Unlock()
	for _, u := range interned.m[h] {
		if u.sameBits(t) {
			return u
		}
	}
	if interned.m == nil {
		interned.m = make(map[uint64][]*Radial)
	}
	interned.m[h] = append(interned.m[h], t)
	return t
}

// contentHash mixes the nodes' bits FNV-1a style, a word at a time.
func (t *Radial) contentHash() uint64 {
	h := uint64(14695981039346656037)
	for _, v := range t.vals {
		h = (h ^ math.Float64bits(v)) * 1099511628211
	}
	return h
}

func (t *Radial) sameBits(u *Radial) bool {
	for i, v := range t.vals {
		if math.Float64bits(v) != math.Float64bits(u.vals[i]) {
			return false
		}
	}
	return true
}

func pairKey(k kind, a, b chem.AtomType) key {
	if b < a {
		a, b = b, a
	}
	return key{k: k, a: a, b: b}
}

// ad4Smoothed is the potential AD4Smoothed tabulates, and AD4Row's
// column for probe.
func ad4Smoothed(probe, rec chem.AtomType) func(r float64) float64 {
	pa, pb := probe.Params(), rec.Params()
	return func(r float64) float64 { return PairEnergySmoothed(pa, pb, max(r, RMin), SmoothRadius) }
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

// elecUnit is the potential Electrostatic tabulates, and AD4Row's
// electrostatic column.
func elecUnit(r float64) float64 { return ElecScale(max(r, RMin)) }

// desolvUnit is the potential Desolvation tabulates, and AD4Row's
// desolvation column.
func desolvUnit(r float64) float64 { return DesolvWeight(max(r, RMin)) }
