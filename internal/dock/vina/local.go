package vina

import (
	"math"

	"repro/internal/chem"
	"repro/internal/dock"
)

// Local optimization constants: Vina 1.1.2's line search (Armijo
// constant, trials, step multiplier), gradient tolerance and the
// epsilon_fl its BFGS update tests against, and this reproduction's
// iteration guard.
const (
	armijo      = 1e-4
	lineTrials  = 10
	lineShrink  = 0.5
	gradTol     = 1e-5
	epsFl       = 2.220446049250313e-16 // DBL_EPSILON, Vina's epsilon_fl
	maxLocalIts = 150                   // a guard against a search that never settles, not a tuning knob
)

// localOptimize is Vina 1.1.2's quasi-Newton refinement (bfgs,
// line_search and bfgs_update of its bfgs.h) over the pose's 6 +
// torsions degrees of freedom: translation, a rotation vector applied
// on the left of the orientation, and the torsion angles, descending
// the analytic gradient of energyGrad. It moves x to the pose it ends
// at and returns that pose's energy, which is Score's: it is the
// refinement on Vina's authentic potential. quasiNewton with hunt set
// is the same search on the capped potential.
//
// Each iteration takes the direction p = −H·g and backtracks from
// α = 1, halving α for at most lineTrials trials, until the trial meets
// the Armijo condition f₁ − f₀ < 1e-4·α·p·g. After the first step H's
// diagonal is set to α·(y·p)/(y·y) when y·y exceeds epsilon_fl; then H
// gets Vina's BFGS update, skipped (with the scaling, which waits for
// the next step) when α·y·p is below epsilon_fl. It stops when
// |g| < 1e-5. Two deviations from Vina, both measured (see
// DESIGN.md "Local optimisation: BFGS"): a line search that finds no
// acceptable trial leaves the pose where it was and resets H to I, and
// a second failure in a row ends the search, where Vina takes its last
// trial regardless; and maxLocalIts bounds the loop, where Vina runs
// (25 + atoms)/3 iterations.
//
// Every trial is one energy-plus-gradient evaluation, counted in
// ws.Stats.Evaluations; accepted steps count in LocalIterations. The
// state lives in ws.Local, so a warm call allocates nothing.
func (e *Engine) localOptimize(s *Scorer, ws *dock.Workspace, box dock.Box, x *dock.Pose) float64 {
	return quasiNewton(s, ws, box, x, false)
}

// quasiNewton is the BFGS search of localOptimize on the authentic
// potential or, with hunt set, on Vina's capped search potential
// (energyGrad with hunt set, Vina's hunt_cap), the local optimisation
// each Metropolis candidate gets. The capped energy it then returns is
// never above Score's at the same pose.
func quasiNewton(s *Scorer, ws *dock.Workspace, box dock.Box, x *dock.Pose, hunt bool) float64 {
	lig := ws.Ligand()
	n := 6 + lig.NumTorsions()
	st := &ws.Local
	st.Resize(n, lig.Mol.NumAtoms())
	h, g, gNew, p, y, hy := st.H, st.G, st.GNew, st.P, st.Y, st.HY
	trial := ws.Get()
	defer ws.Put(trial)

	f0 := evalPose(s, ws, x, g, hunt)
	identity(h, n)
	scaled, failed := false, false
	for it := 0; it < maxLocalIts && dot(g, g) >= gradTol*gradTol; it++ {
		matVec(p, h, g, n, -1)
		pg := dot(p, g)
		alpha, f1, ok := 1.0, 0.0, false
		for t := 0; t < lineTrials; t++ {
			stepPose(trial, x, p, alpha, box)
			f1 = evalPose(s, ws, trial, gNew, hunt)
			if f1-f0 < float64(armijo*alpha)*pg {
				ok = true
				break
			}
			alpha *= lineShrink
		}
		if !ok {
			if failed {
				break
			}
			failed = true
			identity(h, n)
			continue
		}
		failed = false
		ws.Stats.LocalIterations++
		for i := range y {
			y[i] = gNew[i] - g[i]
		}
		x.Set(*trial)
		f0 = f1
		g, gNew = gNew, g
		yp := dot(y, p)
		if !(float64(alpha*yp) >= epsFl) {
			continue
		}
		if !scaled { // H is still I
			if yy := dot(y, y); yy > epsFl {
				d := alpha * yp / yy
				for i := 0; i < n; i++ {
					h[i*n+i] = d
				}
			}
			scaled = true
		}
		bfgsUpdate(h, p, y, hy, alpha, yp, n)
	}
	return f0
}

// evalPose places pose into the workspace's coordinate buffer, scores
// it with its atom gradients (on the capped potential when hunt is
// set) and writes the pose gradient into g: the
// force Σgᵢ for the translation, the torque Σ(xᵢ − T)×gᵢ for the
// rotation vector, and per torsion k u_k·Σ_{i∈Moved_k}(xᵢ − x_Axis2)×gᵢ
// with u_k the unit vector from Axis1 to Axis2. The torsion terms are exact because on an ordered
// tree (chem.TorsionTree) turning angle k rotates Moved_k rigidly about
// its axis in the final coordinates and moves nothing else.
func evalPose(s *Scorer, ws *dock.Workspace, pose *dock.Pose, g []float64, hunt bool) float64 {
	lig := ws.Ligand()
	coords := ws.Coords(*pose)
	grad := ws.Local.Grad
	f := s.energyGrad(coords, grad, hunt)
	ws.Stats.Evaluations++

	var force, torque chem.Vec3
	tr := pose.Translation
	for i, gi := range grad {
		force = force.Add(gi)
		torque = torque.Add(cross(coords[i].Sub(tr), gi))
	}
	g[0], g[1], g[2] = force.X, force.Y, force.Z
	g[3], g[4], g[5] = torque.X, torque.Y, torque.Z
	for k := range lig.Tree.Torsions {
		tor := &lig.Tree.Torsions[k]
		pivot := coords[tor.Axis2]
		var tk chem.Vec3
		for _, i := range tor.Moved {
			if i != tor.Axis2 {
				tk = tk.Add(cross(coords[i].Sub(pivot), grad[i]))
			}
		}
		u := pivot.Sub(coords[tor.Axis1])
		ut := float64(u.X*tk.X) + float64(u.Y*tk.Y) + float64(u.Z*tk.Z)
		g[6+k] = ut / math.Sqrt(float64(u.X*u.X)+float64(u.Y*u.Y)+float64(u.Z*u.Z))
	}
	return f
}

// stepPose writes x moved by α·p into dst: the translation plus αp₀₋₂,
// the orientation turned by the rotation vector αp₃₋₅ (applied on the
// left, renormalized), each torsion plus αp₆₊ₖ wrapped by whole turns,
// and the translation clamped into the box.
func stepPose(dst, x *dock.Pose, p []float64, alpha float64, box dock.Box) {
	dst.Set(*x)
	dst.Translation = chem.V(
		x.Translation.X+float64(alpha*p[0]),
		x.Translation.Y+float64(alpha*p[1]),
		x.Translation.Z+float64(alpha*p[2]))
	w := chem.V(float64(alpha*p[3]), float64(alpha*p[4]), float64(alpha*p[5]))
	angle := math.Sqrt(float64(w.X*w.X) + float64(w.Y*w.Y) + float64(w.Z*w.Z))
	dst.Orientation = normalize(chem.AxisAngleQuat(w, angle).Mul(x.Orientation))
	for k := range dst.Torsions {
		dst.Torsions[k] = dock.WrapAngle(x.Torsions[k] + float64(alpha*p[6+k]))
	}
	dock.ClampToBox(dst, box)
}

// bfgsUpdate is Vina's bfgs_update on the symmetric n×n matrix h, with
// α·y·p ≥ epsilon_fl and hy scratch: with r = 1/(α·y·p),
//
//	h += α·r·(−Hy·pᵀ + p·(−Hy)ᵀ) + α²·(r²·yᵀHy + r)·p·pᵀ,
//
// computed on the upper triangle and mirrored, so h stays exactly
// symmetric.
func bfgsUpdate(h, p, y, hy []float64, alpha, yp float64, n int) {
	matVec(hy, h, y, n, -1) // −H·y
	yhy := -dot(y, hy)
	r := 1 / float64(alpha*yp)
	c1 := float64(alpha * r)
	c2 := float64(alpha*alpha) * (float64(float64(r*r)*yhy) + r)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := h[i*n+j] + float64(c1*(float64(hy[i]*p[j])+float64(hy[j]*p[i]))) + float64(float64(c2*p[i])*p[j])
			h[i*n+j] = v
			h[j*n+i] = v
		}
	}
}

// matVec writes sign·(H·v) into dst for the row-major n×n matrix h.
func matVec(dst, h, v []float64, n int, sign float64) {
	for i := 0; i < n; i++ {
		row := h[i*n : i*n+n]
		var sum float64
		for j, hij := range row {
			sum += float64(hij * v[j])
		}
		dst[i] = sign * sum
	}
}

// identity sets the row-major n×n matrix h to I.
func identity(h []float64, n int) {
	for i := range h {
		h[i] = 0
	}
	for i := 0; i < n; i++ {
		h[i*n+i] = 1
	}
}

// dot is a·b, every product rounded on its own.
func dot(a, b []float64) float64 {
	var sum float64
	for i, ai := range a {
		sum += float64(ai * b[i])
	}
	return sum
}

// cross is a×b, every product rounded on its own.
func cross(a, b chem.Vec3) chem.Vec3 {
	return chem.V(
		float64(a.Y*b.Z)-float64(a.Z*b.Y),
		float64(a.Z*b.X)-float64(a.X*b.Z),
		float64(a.X*b.Y)-float64(a.Y*b.X))
}

// normalize is chem.Quat.Normalize, every product rounded on its own.
func normalize(q chem.Quat) chem.Quat {
	n := math.Sqrt(float64(q.W*q.W) + float64(q.X*q.X) + float64(q.Y*q.Y) + float64(q.Z*q.Z))
	if n == 0 {
		return chem.QuatIdentity
	}
	return chem.Quat{W: q.W / n, X: q.X / n, Y: q.Y / n, Z: q.Z / n}
}
