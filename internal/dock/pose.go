// Package dock provides the types shared by both docking engines:
// poses (the state variables AutoDock optimizes), the search box,
// scoring interfaces and run results.
package dock

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

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
//
// Kinematics is a tree of frames, as Vina's heterotree: frame 0 is the
// root fragment, frame k+1 the branch torsion k turns, and every atom
// is placed once, as its frame's origin plus the frame's rotation of
// the atom's local coordinates (see CoordsInto).
type Ligand struct {
	Mol      *chem.Molecule
	Tree     *chem.TorsionTree
	refCoord []chem.Vec3 // reference (input frame) coordinates for RMSD
	owner    []int32     // per atom, the frame that places it (see Owners)
	frames   []frame     // frame 0 is the root; frame k+1 is torsion k's branch
	order    []int32     // atom indices grouped by frame, ascending within one
	span     []int32     // frame f places order[span[f]:span[f+1]]
	local    []chem.Vec3 // local[j]: atom order[j] relative to its frame's origin, base orientation
}

// frame is one rigid segment of the tree. A branch frame's origin is
// its torsion's Axis2 atom, which the parent frame places; its rotation
// is the parent's composed with the turn about axis.
type frame struct {
	parent int32     // lower than the frame's own index
	origin int32     // atom index of the Axis2 atom
	axis   chem.Vec3 // unit Axis1→Axis2 direction in the base conformation; zero if the atoms coincide
}

// NewLigand builds the conformational model. The reference coordinates
// for RMSD reporting are the molecule's input coordinates, as AutoDock
// uses (the input frame may sit far from the receptor pocket, which is
// why DLG RMSDs of blind dockings are large). The tree must meet
// chem.TorsionTree's ordering rule, which BuildTorsionTree and
// ParsePDBQT always do: Vina's torsion gradient is exact only on an
// ordered tree, and the frames are built on it — ancestors first, so
// a frame's parent and its origin atom's frame come before it.
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
	l := &Ligand{Mol: mol, Tree: tree, refCoord: ref, owner: make([]int32, len(base))}
	for k, tor := range tree.Torsions {
		for _, i := range tor.Moved {
			if i != tor.Axis2 {
				l.owner[i] = int32(k + 1)
			}
		}
	}
	l.frames = make([]frame, len(tree.Torsions)+1)
	l.frames[0].parent = -1
	for k, tor := range tree.Torsions {
		l.frames[k+1] = frame{
			parent: l.owner[tor.Axis2],
			origin: int32(tor.Axis2),
			axis:   unit(base[tor.Axis2].Sub(base[tor.Axis1])),
		}
	}
	l.span = make([]int32, len(l.frames)+1)
	for _, f := range l.owner {
		l.span[f+1]++
	}
	for f := range l.frames {
		l.span[f+1] += l.span[f]
	}
	l.order = make([]int32, len(base))
	l.local = make([]chem.Vec3, len(base))
	next := slices.Clone(l.span[:len(l.frames)])
	for i, f := range l.owner {
		var o chem.Vec3 // the root's origin is the about point
		if f > 0 {
			o = base[l.frames[f].origin]
		}
		l.order[next[f]] = int32(i)
		l.local[next[f]] = base[i].Sub(o)
		next[f]++
	}
	return l, nil
}

// Owners returns, per atom, the rigid frame that places it: 0 for the
// root fragment, k+1 for the branch torsion k turns. An atom belongs to
// the deepest torsion whose Moved set holds it off the axis; a
// torsion's Axis2 atom lies on its axis, so its parent places it. Two
// atoms of one frame keep their distance under any pose, and on the
// trees this package accepts the frames partition the atoms as
// chem.TorsionTree's rigid units do. The slice is shared: do not
// modify it.
func (l *Ligand) Owners() []int32 { return l.owner }

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

// maxStackFrames is the frame count CoordsInto keeps its rotations for
// on the stack; a ligand with more torsions allocates them per call.
const maxStackFrames = 64

// CoordsInto is Coords writing into buf's storage (grown as needed),
// so a search loop that keeps one buffer per worker evaluates
// candidates without allocating. The returned slice aliases buf and
// is overwritten by the next call that reuses it.
//
// The walk goes down the tree of frames once. The root frame's
// rotation is the pose's normalised orientation and its origin the
// pose's translation. Frame k+1's rotation is its parent's composed
// with the turn by angle k about the torsion's base-conformation axis
// (one Sincos and one quaternion product), and its origin is its
// Axis2 atom, which the parent has placed (one rotation). Each atom is
// then placed once: origin plus rotated local coordinates. This is the
// sequential walk — every torsion in tree order rotating its Moved
// atoms about its current axis, then the rigid-body transform — in
// another order of the same rotations, so the two agree up to rounding
// (the kinematics oracle in chem's tests holds them within 1e-9 Å).
//
// Each atom's coordinates are a function of the rigid-body transform
// and of the torsions whose Moved set holds the atom, and of nothing
// else: two poses that differ in angle k alone agree bit for bit on
// every atom outside Moved_k.
func (l *Ligand) CoordsInto(p Pose, buf []chem.Vec3) []chem.Vec3 {
	if len(p.Torsions) != l.NumTorsions() {
		panicTorsions(len(p.Torsions), l.NumTorsions())
	}
	n := len(l.owner)
	if cap(buf) < n {
		buf = make([]chem.Vec3, n)
	}
	coords := buf[:n]
	var stack [maxStackFrames]chem.Quat
	rot := stack[:]
	if len(l.frames) > len(rot) {
		rot = make([]chem.Quat, len(l.frames))
	}
	rot[0] = p.Orientation.Normalize()
	l.place(coords, 0, rot[0], p.Translation)
	for f := 1; f < len(l.frames); f++ {
		fr := &l.frames[f]
		q := rot[fr.parent]
		if fr.axis != (chem.Vec3{}) {
			s, c := math.Sincos(p.Torsions[f-1] / 2)
			q = q.Mul(chem.Quat{W: c, X: fr.axis.X * s, Y: fr.axis.Y * s, Z: fr.axis.Z * s})
		}
		rot[f] = q
		l.place(coords, f, q, coords[fr.origin])
	}
	return coords
}

// unit is chem.Vec3.Unit with every product rounded on its own.
func unit(v chem.Vec3) chem.Vec3 {
	n := math.Sqrt(float64(v.X*v.X) + float64(v.Y*v.Y) + float64(v.Z*v.Z))
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// place writes the atoms of frame f: origin o plus the unit rotation q
// of each atom's local coordinates, through q's rotation matrix.
func (l *Ligand) place(coords []chem.Vec3, f int, q chem.Quat, o chem.Vec3) {
	xx, yy, zz := float64(q.X*q.X), float64(q.Y*q.Y), float64(q.Z*q.Z)
	xy, xz, yz := float64(q.X*q.Y), float64(q.X*q.Z), float64(q.Y*q.Z)
	wx, wy, wz := float64(q.W*q.X), float64(q.W*q.Y), float64(q.W*q.Z)
	m00, m01, m02 := 1-float64(2*(yy+zz)), float64(2*(xy-wz)), float64(2*(xz+wy))
	m10, m11, m12 := float64(2*(xy+wz)), 1-float64(2*(xx+zz)), float64(2*(yz-wx))
	m20, m21, m22 := float64(2*(xz-wy)), float64(2*(yz+wx)), 1-float64(2*(xx+yy))
	lo, hi := l.span[f], l.span[f+1]
	for j, v := range l.local[lo:hi] {
		coords[l.order[lo+int32(j)]] = chem.Vec3{
			X: o.X + float64(m00*v.X) + float64(m01*v.Y) + float64(m02*v.Z),
			Y: o.Y + float64(m10*v.X) + float64(m11*v.Y) + float64(m12*v.Z),
			Z: o.Z + float64(m20*v.X) + float64(m21*v.Y) + float64(m22*v.Z),
		}
	}
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
