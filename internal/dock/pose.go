// Package dock provides the types shared by both docking engines:
// poses (the state variables AutoDock optimizes), the search box,
// scoring interfaces and run results.
package dock

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/chem"
)

// Pose is the docking state of a flexible ligand: a rigid-body
// translation and orientation plus one angle per rotatable bond —
// exactly AutoDock's genotype.
type Pose struct {
	// Translation is where the ligand's about point sits: the centroid
	// of the input conformation, carried rigidly by the root fragment
	// (AutoDock's `about`). It is the ligand centroid only while every
	// torsion is zero — a torsion moves its branch, not the frame.
	Translation chem.Vec3
	Orientation chem.Quat
	Torsions    []float64 // radians, one per rotatable bond
}

// Clone returns a deep copy.
func (p Pose) Clone() Pose {
	q := p
	q.Torsions = append([]float64(nil), p.Torsions...)
	return q
}

// Set copies q into p, reusing p's torsion storage — the
// allocation-free counterpart of Clone used by the search workspaces.
func (p *Pose) Set(q Pose) {
	p.Translation = q.Translation
	p.Orientation = q.Orientation
	p.Torsions = append(p.Torsions[:0], q.Torsions...)
}

// Box is the cuboid search space (the grid box for AD4, the
// config-file box for Vina).
type Box struct {
	Center chem.Vec3
	Size   chem.Vec3 // full edge lengths, Å
}

// Contains reports whether a point is inside the box.
func (b Box) Contains(p chem.Vec3) bool {
	d := p.Sub(b.Center)
	return math.Abs(d.X) <= b.Size.X/2 &&
		math.Abs(d.Y) <= b.Size.Y/2 &&
		math.Abs(d.Z) <= b.Size.Z/2
}

// Ligand is the conformational model both engines share: the prepared
// molecule, its torsion tree and base coordinates with the input
// conformation's centroid — the about point — at the origin. The pose
// frame is fixed in the root fragment: torsions rotate their branches
// of the base conformation about it and nothing re-centres afterwards,
// so Pose.Translation is the about point's position and changing
// angle k moves only the atoms of Tree.Torsions[k].Moved.
type Ligand struct {
	Mol      *chem.Molecule
	Tree     *chem.TorsionTree
	base     []chem.Vec3 // input conformation, about point at the origin
	refCoord []chem.Vec3 // reference (input frame) coordinates for RMSD
}

// NewLigand builds the conformational model. The reference coordinates
// for RMSD reporting are the molecule's input coordinates, as AutoDock
// uses (the input frame may sit far from the receptor pocket, which is
// why DLG RMSDs of blind dockings are large). The tree must meet
// chem.TorsionTree's ordering rule, which BuildTorsionTree and
// ParsePDBQT always do: Vina's torsion gradient is exact only on an
// ordered tree.
func NewLigand(mol *chem.Molecule, tree *chem.TorsionTree) (*Ligand, error) {
	if mol.NumAtoms() == 0 {
		return nil, fmt.Errorf("dock: ligand %q has no atoms", mol.Name)
	}
	if tree == nil {
		return nil, fmt.Errorf("dock: ligand %q has no torsion tree", mol.Name)
	}
	ref := mol.Positions()
	base := mol.Positions()
	c := chem.Centroid(base)
	for i := range base {
		base[i] = base[i].Sub(c)
	}
	if err := tree.CheckOrder(); err != nil {
		return nil, fmt.Errorf("dock: ligand %q: torsion tree breaks the ordering rule of chem.TorsionTree: %w", mol.Name, err)
	}
	return &Ligand{Mol: mol, Tree: tree, base: base, refCoord: ref}, nil
}

// NumTorsions returns the ligand's rotatable bond count.
func (l *Ligand) NumTorsions() int { return l.Tree.NumTorsions() }

// Reference returns the input-frame coordinates used for RMSD.
func (l *Ligand) Reference() []chem.Vec3 { return l.refCoord }

// Coords materializes the atom coordinates of a pose: torsions are
// applied to the base conformation, the result rotated by the
// orientation about the about point and translated.
func (l *Ligand) Coords(p Pose) []chem.Vec3 {
	return l.CoordsInto(p, nil)
}

// CoordsInto is Coords writing into buf's storage (grown as needed),
// so a search loop that keeps one buffer per worker evaluates
// candidates without allocating. The returned slice aliases buf and
// is overwritten by the next call that reuses it.
//
// Each atom's coordinates are a function of the rigid-body transform
// and of the torsions whose Moved set holds the atom, and of nothing
// else: two poses that differ in angle k alone agree bit for bit on
// every atom outside Moved_k.
func (l *Ligand) CoordsInto(p Pose, buf []chem.Vec3) []chem.Vec3 {
	if len(p.Torsions) != l.NumTorsions() {
		panicTorsions(len(p.Torsions), l.NumTorsions())
	}
	coords := l.Tree.ApplyTorsionsInto(buf, l.base, p.Torsions)
	chem.PlaceInto(coords, coords, p.Orientation.Normalize(), p.Translation)
	return coords
}

// panicTorsions reports a pose whose angle count is not its ligand's
// torsion count.
func panicTorsions(pose, ligand int) {
	panic(fmt.Sprintf("dock: pose has %d torsions, ligand %d", pose, ligand))
}

// RandomPose samples a uniform pose inside the box with the given
// RNG: uniform translation, Shoemake-uniform orientation and uniform
// torsions.
func RandomPose(r *rand.Rand, box Box, nTorsions int) Pose {
	var p Pose
	RandomPoseInto(r, &p, box, nTorsions)
	return p
}

// RandomPoseInto is RandomPose writing into dst, reusing its torsion
// storage. The RNG draw order is identical to RandomPose, so mixing
// the two on one seeded source stays reproducible.
func RandomPoseInto(r *rand.Rand, dst *Pose, box Box, nTorsions int) {
	dst.Translation = chem.V(
		box.Center.X+(r.Float64()-0.5)*box.Size.X,
		box.Center.Y+(r.Float64()-0.5)*box.Size.Y,
		box.Center.Z+(r.Float64()-0.5)*box.Size.Z,
	)
	dst.Orientation = chem.RandomQuat(r.Float64(), r.Float64(), r.Float64())
	dst.Torsions = dst.Torsions[:0]
	for i := 0; i < nTorsions; i++ {
		dst.Torsions = append(dst.Torsions, (r.Float64()*2-1)*math.Pi)
	}
}

// Perturb returns a copy of the pose with gaussian displacement of
// amplitude dt (Å) on translation, da (radians) on orientation and
// torsions. Used by Solis-Wets and by Vina's mutation step.
func Perturb(r *rand.Rand, p Pose, dt, da float64) Pose {
	var q Pose
	PerturbInto(r, &q, p, dt, da)
	return q
}

// PerturbInto is Perturb writing into dst, reusing its torsion
// storage (dst must not alias src's torsions). The RNG draw order is
// identical to Perturb, so rewiring a search loop onto it cannot
// change a seeded trajectory.
func PerturbInto(r *rand.Rand, dst *Pose, src Pose, dt, da float64) {
	dst.Set(src)
	dst.Translation = dst.Translation.Add(chem.V(
		r.NormFloat64()*dt, r.NormFloat64()*dt, r.NormFloat64()*dt))
	axis := chem.V(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
	dst.Orientation = chem.AxisAngleQuat(axis, r.NormFloat64()*da).Mul(dst.Orientation).Normalize()
	for i := range dst.Torsions {
		dst.Torsions[i] = WrapAngle(dst.Torsions[i] + r.NormFloat64()*da)
	}
}

// WrapAngle returns the angle a moved into [−π, π] by whole turns. An
// angle beyond ±3π is first reduced by math.Remainder, as Vina's
// normalize_angle reduces a very large one, so the loops below run at
// most once; in (−3π, 3π] each subtraction is exact. It returns NaN
// for ±Inf and NaN.
func WrapAngle(a float64) float64 {
	if math.Abs(a) > 3*math.Pi {
		a = math.Remainder(a, 2*math.Pi)
	}
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a < -math.Pi {
		a += 2 * math.Pi
	}
	return a
}

// ClampToBox moves the pose translation inside the box if it escaped
// (AutoDock wraps genes back into the domain).
func ClampToBox(p *Pose, box Box) {
	half := box.Size.Scale(0.5)
	d := p.Translation.Sub(box.Center)
	if d.X > half.X {
		d.X = half.X
	} else if d.X < -half.X {
		d.X = -half.X
	}
	if d.Y > half.Y {
		d.Y = half.Y
	} else if d.Y < -half.Y {
		d.Y = -half.Y
	}
	if d.Z > half.Z {
		d.Z = half.Z
	} else if d.Z < -half.Z {
		d.Z = -half.Z
	}
	p.Translation = box.Center.Add(d)
}
