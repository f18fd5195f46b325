package ad4

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
)

// TestInterPoseMatchesInterAccum pins the per-pose intermolecular walk,
// grid.Maps.InterPose, to ScoreBatch's kernel at n = 1: InterAccum over
// one-element slices, atom by atom into one sum. Bit for bit, on every
// dataset ligand against 2HHN and on XL1 against 9XLR, for poses inside
// the box, straddling its faces and wholly outside it, and for atoms
// placed exactly on the lattice's lower and upper faces and at −0.
func TestInterPoseMatchesInterAccum(t *testing.T) {
	pairs := [][2]string{{data.LargeReceptorCode, data.LargeLigandCode}}
	for _, l := range data.LigandCodes {
		pairs = append(pairs, [2]string{"2HHN", l})
	}
	if testing.Short() {
		pairs = pairs[:5]
	}
	for _, pr := range pairs {
		maps, lig, _ := setupPair(t, pr[0], pr[1])
		s, err := NewScorer(maps, lig)
		if err != nil {
			t.Fatal(err)
		}
		reference := func(coords []chem.Vec3) float64 {
			var acc [1]float64
			for i, p := range coords {
				maps.InterAccum(s.affFld[i], []float64{p.X}, []float64{p.Y}, []float64{p.Z}, 1,
					weightVdw, s.wq[i], s.wdq[i], acc[:])
			}
			return acc[0]
		}
		var sets [][]chem.Vec3
		for i, pose := range randomPoses(lig, 24, 29) {
			// Inside, then shifted by up to a box width so atoms cross
			// the faces or leave the box.
			sets = append(sets, lig.Coords(pose))
			pose.Translation = pose.Translation.Add(chem.V(float64(i%5-2)*7, float64(i%3-1)*12, float64(i%7-3)*9))
			sets = append(sets, lig.Coords(pose))
			pose.Translation = pose.Translation.Add(chem.V(40, -40, 40))
			sets = append(sets, lig.Coords(pose))
		}
		o := maps.Spec.Origin()
		hi := o.Add(chem.V(
			float64(maps.Spec.NPts[0]-1)*maps.Spec.Spacing,
			float64(maps.Spec.NPts[1]-1)*maps.Spec.Spacing,
			float64(maps.Spec.NPts[2]-1)*maps.Spec.Spacing))
		r := rand.New(rand.NewSource(7))
		faces := lig.Coords(randomPoses(lig, 1, 3)[0])
		for i := range faces {
			switch r.Intn(5) {
			case 0:
				faces[i] = o
			case 1:
				faces[i] = hi
			case 2:
				faces[i] = chem.V(hi.X, o.Y+r.Float64(), hi.Z)
			case 3:
				faces[i] = chem.V(math.Copysign(0, -1), math.Copysign(0, -1), hi.Z)
			case 4:
				faces[i] = chem.V(math.Nextafter(o.X, -1e9), hi.Y, o.Z)
			}
		}
		sets = append(sets, faces)
		for k, coords := range sets {
			got, want := s.interEnergy(coords), reference(coords)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s/%s coordinate set %d: InterPose %v, InterAccum at n = 1 %v", pr[0], pr[1], k, got, want)
			}
		}
	}
}
