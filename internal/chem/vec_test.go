package chem

import (
	"math"
	"testing"
)

const eps = 1e-9

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vecApprox(a, b Vec3, tol float64) bool {
	return approx(a.X, b.X, tol) && approx(a.Y, b.Y, tol) && approx(a.Z, b.Z, tol)
}

func TestVecBasicOps(t *testing.T) {
	a := V(1, 2, 3)
	b := V(-4, 5, 0.5)
	if got := a.Add(b); !vecApprox(got, V(-3, 7, 3.5), eps) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Sub(b); !vecApprox(got, V(5, -3, 2.5), eps) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); !vecApprox(got, V(2, 4, 6), eps) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dot(b); !approx(got, -4+10+1.5, eps) {
		t.Errorf("Dot = %v", got)
	}
	if got := a.Neg(); !vecApprox(got, V(-1, -2, -3), eps) {
		t.Errorf("Neg = %v", got)
	}
}

func TestVecNormDist(t *testing.T) {
	v := V(3, 4, 0)
	if !approx(v.Norm(), 5, eps) {
		t.Errorf("Norm = %v", v.Norm())
	}
	if !approx(v.Norm2(), 25, eps) {
		t.Errorf("Norm2 = %v", v.Norm2())
	}
	w := V(0, 0, 0)
	if !approx(v.Dist(w), 5, eps) {
		t.Errorf("Dist = %v", v.Dist(w))
	}
	if !approx(v.Dist2(w), 25, eps) {
		t.Errorf("Dist2 = %v", v.Dist2(w))
	}
}

func TestVecUnit(t *testing.T) {
	v := V(0, 0, 7)
	if got := v.Unit(); !vecApprox(got, V(0, 0, 1), eps) {
		t.Errorf("Unit = %v", got)
	}
	z := Vec3{}
	if got := z.Unit(); !vecApprox(got, z, eps) {
		t.Errorf("Unit(0) = %v, want zero", got)
	}
}

func TestVecLerp(t *testing.T) {
	a, b := V(0, 0, 0), V(2, 4, 6)
	if got := a.Lerp(b, 0.5); !vecApprox(got, V(1, 2, 3), eps) {
		t.Errorf("Lerp = %v", got)
	}
	if got := a.Lerp(b, 0); !vecApprox(got, a, eps) {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := a.Lerp(b, 1); !vecApprox(got, b, eps) {
		t.Errorf("Lerp(1) = %v", got)
	}
}

func TestDihedral(t *testing.T) {
	// Classic trans (180°) butane-like arrangement.
	a := V(0, 1, 0)
	b := V(0, 0, 0)
	c := V(1, 0, 0)
	d := V(1, -1, 0)
	if got := math.Abs(Dihedral(a, b, c, d)); !approx(got, math.Pi, 1e-6) {
		t.Errorf("trans dihedral = %v, want pi", got)
	}
	// Cis (0°).
	d2 := V(1, 1, 0)
	if got := Dihedral(a, b, c, d2); !approx(got, 0, 1e-6) {
		t.Errorf("cis dihedral = %v, want 0", got)
	}
	// +90°.
	d3 := V(1, 0, 1)
	if got := math.Abs(Dihedral(a, b, c, d3)); !approx(got, math.Pi/2, 1e-6) {
		t.Errorf("perpendicular dihedral = %v, want pi/2", got)
	}
}

func TestCentroidAndBounds(t *testing.T) {
	pts := []Vec3{V(0, 0, 0), V(2, 2, 2), V(4, -2, 1)}
	if got := Centroid(pts); !vecApprox(got, V(2, 0, 1), eps) {
		t.Errorf("Centroid = %v", got)
	}
	min, max := BoundingBox(pts)
	if !vecApprox(min, V(0, -2, 0), eps) || !vecApprox(max, V(4, 2, 2), eps) {
		t.Errorf("BoundingBox = %v %v", min, max)
	}
	if got := Centroid(nil); !vecApprox(got, Vec3{}, eps) {
		t.Errorf("Centroid(nil) = %v", got)
	}
	min, max = BoundingBox(nil)
	if min != (Vec3{}) || max != (Vec3{}) {
		t.Errorf("BoundingBox(nil) = %v %v", min, max)
	}
}

// Dihedral returns the dihedral angle (radians, in (-π, π]) defined by
// the four points a-b-c-d, i.e. the angle between planes (a,b,c) and
// (b,c,d). This is the torsion-angle convention used by AutoDock.
func Dihedral(a, b, c, d Vec3) float64 {
	b1 := b.Sub(a)
	b2 := c.Sub(b)
	b3 := d.Sub(c)
	n1 := cross(b1, b2)
	n2 := cross(b2, b3)
	m1 := cross(n1, b2.Unit())
	x := n1.Dot(n2)
	y := m1.Dot(n2)
	return math.Atan2(y, x)
}

func cross(v, w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}
