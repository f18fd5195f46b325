package dock

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/chem"
)

// jitteredLattice is a seeded synthetic atom set: side³ carbons on a
// 2 Å lattice centred at the origin, each displaced by up to ±0.5 Å per
// axis. side = 23 gives 12167 atoms — above fineGatherMaxAtoms, which
// no dataset receptor is — so it is the input that takes the
// prune-sphere entry walk.
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

// TestPackedSpansMatchBruteForce pins the candidate walk every table
// scorer shares, on both sides of the fine-cell gate: for query points
// inside the atom box, on its faces and one cutoff outside it, the hit
// sequence (class and R² bits, in order) of Gather, and of the per-pose
// scorer's chunked walk of Spans' candidates (FilterIndexed over the
// fine-cell index list, FilterSpan over coarse spans) at every chunk
// length from 1 (a list split at every boundary, every chunk an
// unpaired tail) to the production 64, equals a brute-force scan of
// the packed atoms in ascending packed order. The fine lists take at
// most 2 bytes an entry.
func TestPackedSpansMatchBruteForce(t *testing.T) {
	const cutoff = 8.0
	const cut2 = cutoff * cutoff
	for _, tc := range []struct {
		side int
		fine bool
	}{{12, true}, {23, false}} {
		mol := jitteredLattice(tc.side, 2014)
		nl := NewNeighborList(mol, cutoff)
		// Every fifth atom is dropped from the packed set, like the
		// receptor hydrogens the Vina scorer never scores.
		pn := NewPackedNeighbors(nl, func(atom int32) int32 { return atom%5 - 1 })
		atoms := pn.Atoms()
		if got := pn.fidx != nil; got != tc.fine {
			t.Fatalf("side %d: %d packed atoms, fine lists built = %v, want %v",
				tc.side, len(atoms), got, tc.fine)
		}
		if tc.fine {
			entries := int(pn.foff[len(pn.foff)-1])
			if bytes := cap(pn.fidx) * int(unsafe.Sizeof(pn.fidx[0])); bytes > 2*entries {
				t.Fatalf("side %d: fine lists hold %d entries in %d bytes, want ≤ 2 bytes an entry",
					tc.side, entries, bytes)
			}
		}
		hitLen := 1
		for hitLen < len(atoms) {
			hitLen *= 2
		}
		hits := make([]Hit, hitLen)

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
		queries = append(queries, chem.V(hi.X+cutoff+1e-6, 0, 0)) // beyond the guard box

		total := 0
		for qi, p := range queries {
			var want []Hit
			for _, a := range atoms {
				dx, dy, dz := a.X-p.X, a.Y-p.Y, a.Z-p.Z
				if r2 := dx*dx + dy*dy + dz*dz; r2 <= cut2 {
					want = append(want, Hit{R2: r2, Cls: a.Cls})
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
			check("Gather", hits[:pn.Gather(p, cut2, hits)])

			var spans [27][2]int32
			fine, ns := pn.Spans(p, &spans)
			if tc.fine != (ns == 0) && len(want) > 0 {
				t.Fatalf("side %d query %d %v: %d coarse spans on the wrong side of the gate", tc.side, qi, p, ns)
			}
			for _, chunk := range []int{1, 2, 3, 7, 64} {
				var buf [64]Hit
				var got []Hit
				for at := 0; at < len(fine); at += chunk {
					end := min(at+chunk, len(fine))
					m := FilterIndexed(atoms, fine[at:end], p.X, p.Y, p.Z, cut2, buf[:], 0)
					got = append(got, buf[:m]...)
				}
				for _, sp := range spans[:ns] {
					for at := sp[0]; at < sp[1]; at += int32(chunk) {
						end := min(at+int32(chunk), sp[1])
						m := FilterSpan(atoms[at:end], p.X, p.Y, p.Z, cut2, buf[:], 0)
						got = append(got, buf[:m]...)
					}
				}
				check(fmt.Sprintf("chunk-%d walk", chunk), got)
			}
		}
		if total == 0 {
			t.Fatalf("side %d: no query had a hit", tc.side)
		}
	}
}
