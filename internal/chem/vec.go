// Package chem provides the molecular model shared by the whole
// repository: 3D geometry primitives, elements and AutoDock atom
// types, atoms, bonds, molecules, torsion trees and RMSD.
//
// It is the lowest substrate of the SciDock reproduction; every other
// package (file formats, preparation, grid generation, docking
// engines, workload generation) builds on these types.
package chem

import (
	"fmt"
	"math"
)

// Vec3 is a point or direction in 3D space, in Ångström.
type Vec3 struct {
	X, Y, Z float64
}

// V is a convenience constructor for Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Dist2 returns the squared distance between v and w.
func (v Vec3) Dist2(w Vec3) float64 { return v.Sub(w).Norm2() }

// Unit returns v normalized to unit length. The zero vector is
// returned unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Lerp linearly interpolates between v and w: v + t*(w-v).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 { return v.Add(w.Sub(v).Scale(t)) }

// String formats the vector with three decimals, the precision used
// by the PDB coordinate columns.
func (v Vec3) String() string { return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z) }

// Centroid returns the arithmetic mean of the given points. It
// returns the zero vector for an empty slice.
func Centroid(pts []Vec3) Vec3 {
	if len(pts) == 0 {
		return Vec3{}
	}
	var c Vec3
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// BoundingBox returns the axis-aligned min and max corners of the
// given points. It returns zero vectors for an empty slice.
func BoundingBox(pts []Vec3) (min, max Vec3) {
	if len(pts) == 0 {
		return
	}
	min, max = pts[0], pts[0]
	for _, p := range pts[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		min.Z = math.Min(min.Z, p.Z)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
		max.Z = math.Max(max.Z, p.Z)
	}
	return
}
