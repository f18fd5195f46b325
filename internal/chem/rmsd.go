package chem

import (
	"fmt"
	"math"
)

// RMSD returns the root-mean-square deviation between two equal-length
// coordinate sets, without superposition — the convention AutoDock
// uses in its DLG cluster tables (deviation from the reference input
// pose in the grid frame).
func RMSD(a, b []Vec3) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("chem: RMSD length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, fmt.Errorf("chem: RMSD of empty coordinate sets")
	}
	var s float64
	for i := range a {
		s += a[i].Dist2(b[i])
	}
	return math.Sqrt(s / float64(len(a))), nil
}

// KabschRMSD returns the minimum RMSD between the two coordinate sets
// over all rigid superpositions (rotation + translation), via the
// Kabsch algorithm with an iterative principal-rotation solve. Used by
// the redocking analyses suggested in §V.D.
func KabschRMSD(a, b []Vec3) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("chem: KabschRMSD length mismatch %d vs %d", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, fmt.Errorf("chem: KabschRMSD of empty coordinate sets")
	}
	ca, cb := Centroid(a), Centroid(b)
	// Covariance matrix H = Σ (a_i - ca)(b_i - cb)^T
	var h [3][3]float64
	for i := range a {
		p := a[i].Sub(ca)
		q := b[i].Sub(cb)
		pv := [3]float64{p.X, p.Y, p.Z}
		qv := [3]float64{q.X, q.Y, q.Z}
		for r := 0; r < 3; r++ {
			for c := 0; c < 3; c++ {
				h[r][c] += pv[r] * qv[c]
			}
		}
	}
	// E0 = Σ(|p|² + |q|²)
	var e0 float64
	for i := range a {
		e0 += a[i].Sub(ca).Norm2() + b[i].Sub(cb).Norm2()
	}
	// Optimal superposition residual: E0 - 2*Σ singular values of H
	// (with sign correction for reflections). Singular values of H are
	// sqrt of eigenvalues of H^T H; use Jacobi iteration on the 3×3
	// symmetric matrix.
	var hth [3][3]float64
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			for k := 0; k < 3; k++ {
				hth[r][c] += h[k][r] * h[k][c]
			}
		}
	}
	ev := jacobiEigen3(hth)
	for i := range ev {
		if ev[i] < 0 {
			ev[i] = 0 // numerical noise
		}
	}
	detH := det3(h)
	sum := math.Sqrt(ev[0]) + math.Sqrt(ev[1])
	if detH < 0 {
		sum -= math.Sqrt(ev[2])
	} else {
		sum += math.Sqrt(ev[2])
	}
	res := e0 - 2*sum
	if res < 0 {
		res = 0
	}
	return math.Sqrt(res / float64(len(a))), nil
}

// jacobiEigen3 returns the eigenvalues of a symmetric 3×3 matrix in
// descending order using cyclic Jacobi rotations.
func jacobiEigen3(m [3][3]float64) [3]float64 {
	a := m
	for sweep := 0; sweep < 50; sweep++ {
		off := a[0][1]*a[0][1] + a[0][2]*a[0][2] + a[1][2]*a[1][2]
		if off < 1e-24 {
			break
		}
		for p := 0; p < 2; p++ {
			for q := p + 1; q < 3; q++ {
				if math.Abs(a[p][q]) < 1e-15 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := 1 / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				if theta < 0 {
					t = -t
				}
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				// Apply rotation J(p,q,θ)^T A J(p,q,θ)
				var b [3][3]float64 = a
				for k := 0; k < 3; k++ {
					b[p][k] = c*a[p][k] - s*a[q][k]
					b[q][k] = s*a[p][k] + c*a[q][k]
				}
				var d [3][3]float64 = b
				for k := 0; k < 3; k++ {
					d[k][p] = c*b[k][p] - s*b[k][q]
					d[k][q] = s*b[k][p] + c*b[k][q]
				}
				a = d
			}
		}
	}
	ev := [3]float64{a[0][0], a[1][1], a[2][2]}
	// Sort descending.
	if ev[0] < ev[1] {
		ev[0], ev[1] = ev[1], ev[0]
	}
	if ev[1] < ev[2] {
		ev[1], ev[2] = ev[2], ev[1]
	}
	if ev[0] < ev[1] {
		ev[0], ev[1] = ev[1], ev[0]
	}
	return ev
}

func det3(m [3][3]float64) float64 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}
