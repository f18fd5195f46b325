package chem

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestQuatIdentityRotation(t *testing.T) {
	v := V(1.5, -2, 3)
	if got := QuatIdentity.Rotate(v); !vecApprox(got, v, eps) {
		t.Errorf("identity rotate = %v", got)
	}
}

func TestAxisAngle90(t *testing.T) {
	q := AxisAngleQuat(V(0, 0, 1), math.Pi/2)
	got := q.Rotate(V(1, 0, 0))
	if !vecApprox(got, V(0, 1, 0), 1e-12) {
		t.Errorf("z-90 rotate x = %v, want y", got)
	}
}

func TestAxisAngleZeroAxis(t *testing.T) {
	q := AxisAngleQuat(Vec3{}, 1.23)
	if q != QuatIdentity {
		t.Errorf("zero-axis quat = %v, want identity", q)
	}
}

func TestQuatMulComposition(t *testing.T) {
	// 90° about z then 90° about x equals the composed quaternion.
	qz := AxisAngleQuat(V(0, 0, 1), math.Pi/2)
	qx := AxisAngleQuat(V(1, 0, 0), math.Pi/2)
	v := V(1, 0, 0)
	seq := qx.Rotate(qz.Rotate(v))
	comp := qx.Mul(qz).Rotate(v)
	if !vecApprox(seq, comp, 1e-12) {
		t.Errorf("composition mismatch: %v vs %v", seq, comp)
	}
}

// Property: rotation preserves norms and pairwise distances.
func TestQuatRotationIsometryProperty(t *testing.T) {
	f := func(u1, u2, u3, x, y, z float64) bool {
		q := RandomQuat(u1, u2, u3)
		v := V(x, y, z)
		return approx(q.Rotate(v).Norm(), v.Norm(), 1e-9*(1+v.Norm()))
	}
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(2)),
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := 0; i < 3; i++ {
				args[i] = reflect.ValueOf(r.Float64())
			}
			for i := 3; i < 6; i++ {
				args[i] = reflect.ValueOf(r.Float64()*40 - 20)
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: RandomQuat yields unit quaternions.
func TestRandomQuatUnitProperty(t *testing.T) {
	f := func(u1, u2, u3 float64) bool {
		return approx(RandomQuat(u1, u2, u3).Norm(), 1, 1e-12)
	}
	cfg := &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(3)),
		Values: func(args []reflect.Value, r *rand.Rand) {
			for i := range args {
				args[i] = reflect.ValueOf(r.Float64())
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuatNormalize(t *testing.T) {
	q := Quat{W: 2, X: 0, Y: 0, Z: 0}.Normalize()
	if q != QuatIdentity {
		t.Errorf("normalize(2,0,0,0) = %v", q)
	}
	if got := (Quat{}).Normalize(); got != QuatIdentity {
		t.Errorf("normalize(zero) = %v, want identity", got)
	}
}

func TestQuatSlerpEndpoints(t *testing.T) {
	a := AxisAngleQuat(V(0, 0, 1), 0.3)
	b := AxisAngleQuat(V(0, 0, 1), 1.7)
	if got := a.Slerp(b, 0); !quatApprox(got, a, 1e-9) {
		t.Errorf("slerp(0) = %v", got)
	}
	if got := a.Slerp(b, 1); !quatApprox(got, b, 1e-9) {
		t.Errorf("slerp(1) = %v", got)
	}
	// Midpoint of two z-rotations is the z-rotation of mean angle.
	mid := a.Slerp(b, 0.5)
	want := AxisAngleQuat(V(0, 0, 1), 1.0)
	if !quatApprox(mid, want, 1e-9) {
		t.Errorf("slerp(0.5) = %v, want %v", mid, want)
	}
}

func quatApprox(a, b Quat, tol float64) bool {
	// q and -q are the same rotation.
	d1 := math.Abs(a.W-b.W) + math.Abs(a.X-b.X) + math.Abs(a.Y-b.Y) + math.Abs(a.Z-b.Z)
	d2 := math.Abs(a.W+b.W) + math.Abs(a.X+b.X) + math.Abs(a.Y+b.Y) + math.Abs(a.Z+b.Z)
	return d1 <= tol || d2 <= tol
}
