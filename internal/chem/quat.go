package chem

import "math"

// Quat is a rotation quaternion (W + Xi + Yj + Zk). Docking poses use
// quaternions for the rigid-body orientation gene, exactly as
// AutoDock's state variables do.
type Quat struct {
	W, X, Y, Z float64
}

// QuatIdentity is the no-rotation quaternion.
var QuatIdentity = Quat{W: 1}

// AxisAngleQuat builds a quaternion rotating by angle (radians) about
// the given axis. The axis need not be normalized; a zero axis yields
// the identity.
func AxisAngleQuat(axis Vec3, angle float64) Quat {
	u := axis.Unit()
	if u.Norm2() == 0 {
		return QuatIdentity
	}
	s, c := math.Sincos(angle / 2)
	return Quat{W: c, X: u.X * s, Y: u.Y * s, Z: u.Z * s}
}

// Mul returns the Hamilton product q*r (apply r, then q). Every
// product is rounded on its own, so no platform fuses a multiply-add
// into it: ligand kinematics composes its frames with it.
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: float64(q.W*r.W) - float64(q.X*r.X) - float64(q.Y*r.Y) - float64(q.Z*r.Z),
		X: float64(q.W*r.X) + float64(q.X*r.W) + float64(q.Y*r.Z) - float64(q.Z*r.Y),
		Y: float64(q.W*r.Y) - float64(q.X*r.Z) + float64(q.Y*r.W) + float64(q.Z*r.X),
		Z: float64(q.W*r.Z) + float64(q.X*r.Y) - float64(q.Y*r.X) + float64(q.Z*r.W),
	}
}

// Conj returns the conjugate of q.
func (q Quat) Conj() Quat { return Quat{q.W, -q.X, -q.Y, -q.Z} }

// Norm returns the quaternion norm.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalize returns q scaled to unit norm. A zero quaternion becomes
// the identity.
func (q Quat) Normalize() Quat {
	n := q.Norm()
	if n == 0 {
		return QuatIdentity
	}
	return Quat{q.W / n, q.X / n, q.Y / n, q.Z / n}
}

// Rotate applies the rotation q to vector v (q must be unit norm).
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = q * (0,v) * q^-1, expanded to avoid allocations.
	tx := 2 * (q.Y*v.Z - q.Z*v.Y)
	ty := 2 * (q.Z*v.X - q.X*v.Z)
	tz := 2 * (q.X*v.Y - q.Y*v.X)
	return Vec3{
		v.X + q.W*tx + (q.Y*tz - q.Z*ty),
		v.Y + q.W*ty + (q.Z*tx - q.X*tz),
		v.Z + q.W*tz + (q.X*ty - q.Y*tx),
	}
}

// Slerp spherically interpolates between q and r at parameter t in
// [0,1]. Used by local-search perturbation damping.
func (q Quat) Slerp(r Quat, t float64) Quat {
	dot := q.W*r.W + q.X*r.X + q.Y*r.Y + q.Z*r.Z
	if dot < 0 { // take the short arc
		r = Quat{-r.W, -r.X, -r.Y, -r.Z}
		dot = -dot
	}
	if dot > 0.9995 { // nearly parallel: lerp + renormalize
		return Quat{
			q.W + t*(r.W-q.W),
			q.X + t*(r.X-q.X),
			q.Y + t*(r.Y-q.Y),
			q.Z + t*(r.Z-q.Z),
		}.Normalize()
	}
	theta := math.Acos(dot)
	s := math.Sin(theta)
	a := math.Sin((1-t)*theta) / s
	b := math.Sin(t*theta) / s
	return Quat{
		a*q.W + b*r.W,
		a*q.X + b*r.X,
		a*q.Y + b*r.Y,
		a*q.Z + b*r.Z,
	}
}

// RandomQuat returns a uniformly distributed unit quaternion given
// three uniform random numbers in [0,1) (Shoemake's method). Callers
// supply randomness so docking runs stay deterministic per seed.
func RandomQuat(u1, u2, u3 float64) Quat {
	s1 := math.Sqrt(1 - u1)
	s2 := math.Sqrt(u1)
	a := 2 * math.Pi * u2
	b := 2 * math.Pi * u3
	return Quat{
		W: s2 * math.Cos(b),
		X: s1 * math.Sin(a),
		Y: s1 * math.Cos(a),
		Z: s2 * math.Sin(b),
	}
}

// RotationAngle returns the rotation angle of the unit quaternion q,
// in [0, π].
func (q Quat) RotationAngle() float64 {
	w := q.W
	if w > 1 {
		w = 1
	} else if w < -1 {
		w = -1
	}
	a := 2 * math.Acos(math.Abs(w))
	return a
}
