package dock

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/chem"
)

// jitteredLattice is a seeded synthetic atom set: side³ carbons on a
// 2 Å lattice centred at the origin, each displaced by up to ±0.5 Å per
// axis. side = 35 with every fifth atom dropped packs 34,300 atoms —
// more than an int16 index can address, and more than any dataset
// receptor has.
func jitteredLattice(side int, seed int64) *chem.Molecule {
	r := rand.New(rand.NewSource(seed))
	m := &chem.Molecule{Name: fmt.Sprintf("lattice%d", side)}
	half := float64(side-1) / 2
	for z := 0; z < side; z++ {
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				m.Atoms = append(m.Atoms, chem.Atom{
					Element: chem.Carbon, Type: chem.TypeC,
					Pos: chem.V(
						2*(float64(x)-half)+r.Float64()-0.5,
						2*(float64(y)-half)+r.Float64()-0.5,
						2*(float64(z)-half)+r.Float64()-0.5),
				})
			}
		}
	}
	return m
}

// TestPackedSpansMatchBruteForce pins the receptor neighbour walk of
// map generation and the Vina scorer: for query points inside the atom
// box, on its faces, one cutoff outside it, at every atom's own
// position (the atoms that define the box sit on its faces) and just
// inside each of the six guard faces, the hit sequence (class and R²
// bits, in order) of the chunked FilterIndexed walk of Candidates at
// every chunk length from 1 to the production 64 equals a brute-force
// scan of the packed atoms in ascending packed order. Just outside each
// guard face, and far away, a query has no candidate at all. The fine
// lists hold exact-sized int32 indices into the packed atoms, not atom
// copies, and address more atoms than an int16 can.
func TestPackedSpansMatchBruteForce(t *testing.T) {
	const cutoff = 8.0
	const cut2 = cutoff * cutoff
	for _, tc := range []struct {
		side     int
		ownEvery int // probe every ownEvery-th atom's position, and every face atom's
	}{{12, 1}, {35, 97}} {
		mol := jitteredLattice(tc.side, 2014)
		// Every fifth atom is dropped from the packed set, like the
		// receptor hydrogens the Vina scorer never scores.
		pn := NewPackedNeighbors(mol, cutoff, func(atom int32) int32 { return atom%5 - 1 })
		atoms := pn.Atoms()
		if tc.side == 35 && len(atoms) <= math.MaxInt16 {
			t.Fatalf("side %d: %d packed atoms, want more than an int16 addresses", tc.side, len(atoms))
		}
		entries := int(pn.foff[len(pn.foff)-1])
		if cap(pn.fidx) != entries || unsafe.Sizeof(pn.fidx[0]) != 4 {
			t.Fatalf("side %d: fine lists hold %d entries in cap %d of %d-byte indices, want exact-sized 4-byte indices",
				tc.side, entries, cap(pn.fidx), unsafe.Sizeof(pn.fidx[0]))
		}
		lo, hi := chem.BoundingBox(mol.Positions())
		r := rand.New(rand.NewSource(7))
		var queries []chem.Vec3
		for i := 0; i < 300; i++ {
			p := chem.V(
				lo.X+r.Float64()*(hi.X-lo.X),
				lo.Y+r.Float64()*(hi.Y-lo.Y),
				lo.Z+r.Float64()*(hi.Z-lo.Z))
			switch i % 3 {
			case 1: // on a face of the box
				p.X = lo.X
				if i%2 == 0 {
					p.Z = hi.Z
				}
			case 2: // up to one cutoff outside it, where cells are clamped
				p.Y = hi.Y + r.Float64()*cutoff
				if i%2 == 0 {
					p.X = lo.X - r.Float64()*cutoff
				}
			}
			queries = append(queries, p)
		}
		for i, a := range mol.Atoms {
			q := a.Pos
			if i%tc.ownEvery == 0 || q.X == lo.X || q.X == hi.X ||
				q.Y == lo.Y || q.Y == hi.Y || q.Z == lo.Z || q.Z == hi.Z {
				queries = append(queries, q)
			}
		}
		// Each face of the cutoff-expanded box, 1e-6 inside and outside,
		// and one far query.
		guard := func(s float64) []chem.Vec3 {
			c := lo.Add(hi).Scale(0.5)
			return []chem.Vec3{
				chem.V(lo.X-cutoff-s, c.Y, c.Z), chem.V(hi.X+cutoff+s, c.Y, c.Z),
				chem.V(c.X, lo.Y-cutoff-s, c.Z), chem.V(c.X, hi.Y+cutoff+s, c.Z),
				chem.V(c.X, c.Y, lo.Z-cutoff-s), chem.V(c.X, c.Y, hi.Z+cutoff+s),
			}
		}
		const eps = 1e-6
		queries = append(queries, guard(-eps)...)
		beyond := append(guard(eps), chem.V(1e4, 1e4, 1e4))
		for _, p := range beyond {
			if n := len(pn.Candidates(p)); n != 0 {
				t.Fatalf("side %d query %v: %d candidates beyond the guard box", tc.side, p, n)
			}
		}

		total, own := 0, 0
		for qi, p := range append(queries, beyond...) {
			var want []Hit
			for _, a := range atoms {
				dx, dy, dz := a.X-p.X, a.Y-p.Y, a.Z-p.Z
				if r2 := dx*dx + dy*dy + dz*dz; r2 <= cut2 {
					want = append(want, Hit{R2: r2, Cls: a.Cls})
					if r2 == 0 {
						own++
					}
				}
			}
			total += len(want)
			check := func(how string, got []Hit) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("side %d query %d %v: %s found %d hits, brute force %d",
						tc.side, qi, p, how, len(got), len(want))
				}
				for k := range want {
					if got[k] != want[k] {
						t.Fatalf("side %d query %d %v: %s hit %d = %+v, brute force %+v",
							tc.side, qi, p, how, k, got[k], want[k])
					}
				}
			}
			cand := pn.Candidates(p)
			for _, chunk := range []int{1, 2, 3, 7, 64} {
				var buf [64]Hit
				var got []Hit
				for at := 0; at < len(cand); at += chunk {
					end := min(at+chunk, len(cand))
					m := FilterIndexed(atoms, cand[at:end], p.X, p.Y, p.Z, cut2, buf[:], 0)
					got = append(got, buf[:m]...)
				}
				check(fmt.Sprintf("chunk-%d walk", chunk), got)
			}
		}
		if total == 0 || own == 0 {
			t.Fatalf("side %d: %d hits, %d of them at a query's own atom", tc.side, total, own)
		}
	}
}
