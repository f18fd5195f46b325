package data

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/chem"
)

// LargeLigandCode and LargeReceptorCode name the synthetic
// L2-overflow benchmark pair: a production-sized, many-type flexible
// ligand and a wide-cavity receptor sized to wrap it. The pair is the
// benchmark's dock_large workload (`go run ./bench`) — the reference
// pair's exact tables fit L2, so the fast kernels' table-traffic win
// only shows once the working set overflows; this pair is built to
// overflow it (≥14 AD4 types drive the Vina exact inter+intra table
// set into the megabytes).
const (
	LargeLigandCode   = "XL1"
	LargeReceptorCode = "9XLR"
)

// xlBuilder grows the large ligand atom by atom with a small seeded
// positional jitter, so the geometry is deterministic but free of
// exact symmetries.
type xlBuilder struct {
	m *chem.Molecule
	r *rand.Rand
}

func (b *xlBuilder) atom(e chem.Element, pos chem.Vec3) int {
	const jit = 0.05
	pos = pos.Add(chem.V(
		(b.r.Float64()-0.5)*jit,
		(b.r.Float64()-0.5)*jit,
		(b.r.Float64()-0.5)*jit))
	i := len(b.m.Atoms)
	b.m.Atoms = append(b.m.Atoms, chem.Atom{
		Serial:  i + 1,
		Name:    fmt.Sprintf("%s%d", e, i+1),
		Element: e,
		Pos:     pos,
		HetAtm:  true,
		Residue: b.m.Name,
	})
	return i
}

func (b *xlBuilder) bond(i, j int, o chem.BondOrder) {
	b.m.Bonds = append(b.m.Bonds, chem.Bond{A: i, B: j, Order: o})
}

// ring attaches a six-membered aromatic ring to parent (at pPos) along
// unit direction d, the ring plane spanned by d and v. hetAt ≥ 0 makes
// that ring slot a nitrogen (pyridine → AD4 type NA after prep).
// Returns the para atom's index and position, for biphenyl chaining
// and para substituents.
func (b *xlBuilder) ring(parent int, pPos, d, v chem.Vec3, hetAt int) (int, chem.Vec3) {
	const bondLen, ringR = 1.48, 1.40
	c := pPos.Add(d.Scale(bondLen + ringR))
	var idx [6]int
	for k := 0; k < 6; k++ {
		ang := math.Pi + float64(k)*math.Pi/3
		pos := c.Add(d.Scale(ringR * math.Cos(ang))).Add(v.Scale(ringR * math.Sin(ang)))
		e := chem.Carbon
		if k == hetAt {
			e = chem.Nitrogen
		}
		idx[k] = b.atom(e, pos)
	}
	for k := 0; k < 6; k++ {
		b.bond(idx[k], idx[(k+1)%6], chem.Aromatic)
	}
	b.bond(parent, idx[0], chem.Single)
	return idx[3], c.Add(d.Scale(ringR))
}

// GenerateLargeLigand deterministically builds the L2-overflow
// benchmark ligand: a 20-heavy-atom backbone (ether, thioether and
// amine stations) carrying eight aromatic stacks — two pyridines, four
// biphenyls, one terphenyl — decorated with every halogen, a phenol, an
// aniline, a thiol and a zinc-capped phosphate. After preparation it
// lands at ~120–130 docked atoms, 14 distinct AD4 atom types and ~34
// rotatable bonds, the regime where the exact radial-table working set
// overflows L2 and per-window kinematics dominate a naive scorer.
func GenerateLargeLigand() (*chem.Molecule, LigandInfo) {
	r := rand.New(rand.NewSource(Seed(LargeLigandCode) ^ 0x9e3779))
	b := &xlBuilder{m: &chem.Molecule{Name: LargeLigandCode}, r: r}
	xhat, yhat, zhat := chem.V(1, 0, 0), chem.V(0, 1, 0), chem.V(0, 0, 1)

	// Backbone: zigzag chain along x. Stations: 3 = ether oxygen (OA),
	// 8 = thioether sulfur (SA), 12 = amine nitrogen (N, keeps its H).
	const nChain = 20
	chain := make([]int, nChain)
	cpos := make([]chem.Vec3, nChain)
	for i := 0; i < nChain; i++ {
		e := chem.Carbon
		switch i {
		case 3:
			e = chem.Oxygen
		case 8:
			e = chem.Sulfur
		case 12:
			e = chem.Nitrogen
		}
		cpos[i] = chem.V(float64(i)*1.32, 0.38*float64(i%2), 0)
		chain[i] = b.atom(e, cpos[i])
		if i > 0 {
			b.bond(chain[i-1], chain[i], chem.Single)
		}
	}
	hn := b.atom(chem.Hydrogen, cpos[12].Add(zhat.Scale(1.02)))
	b.bond(chain[12], hn, chem.Single)
	// Thiol below the chain: S bonded to H types as S (vs the bare
	// thioether's SA).
	st := b.atom(chem.Sulfur, cpos[5].Add(zhat.Scale(-1.8)))
	b.bond(chain[5], st, chem.Single)
	hs := b.atom(chem.Hydrogen, cpos[5].Add(zhat.Scale(-1.8)).Add(xhat.Scale(1.34)))
	b.bond(st, hs, chem.Single)

	// Aromatic stacks off the even chain carbons, alternating sides so
	// same-side stacks sit ≥ 5.3 Å apart in x; every ring plane is y–z,
	// so a stack never grows toward its x neighbours. depth chains
	// rings para-to-para (biphenyl/terphenyl single bonds — rotatable),
	// sub/subH decorate the outermost para position.
	type ringSpec struct {
		at    int
		side  float64
		het   int
		depth int
		sub   chem.Element
		subH  int
	}
	specs := []ringSpec{
		{0, +1, -1, 2, chem.Fluorine, 0},
		{2, -1, 2, 1, chem.Chlorine, 0},
		{4, +1, -1, 2, chem.Oxygen, 1}, // phenol → OA + HD
		{6, -1, -1, 1, chem.Bromine, 0},
		{10, +1, 2, 3, chem.Iodine, 0},    // pyridine-rooted terphenyl
		{14, -1, -1, 2, chem.Nitrogen, 2}, // aniline → N + 2 HD
		{16, +1, -1, 2, chem.Fluorine, 0},
		{18, -1, -1, 1, chem.Chlorine, 0},
	}
	for _, sp := range specs {
		d := yhat.Scale(sp.side)
		parent, pPos := chain[sp.at], cpos[sp.at]
		het := sp.het
		for dep := 0; dep < sp.depth; dep++ {
			parent, pPos = b.ring(parent, pPos, d, zhat, het)
			het = -1 // only the innermost ring carries the nitrogen
		}
		if sp.sub != "" {
			sub := b.atom(sp.sub, pPos.Add(d.Scale(1.55)))
			b.bond(parent, sub, chem.Single)
			for h := 0; h < sp.subH; h++ {
				hp := pPos.Add(d.Scale(2.05)).Add(xhat.Scale(0.9 * float64(1-2*h)))
				b.bond(sub, b.atom(chem.Hydrogen, hp), chem.Single)
			}
		}
	}

	// Zinc-capped phosphate on the chain end: P + three oxygens, one
	// coordinating the Zn ion (types P, OA, Zn).
	p := b.atom(chem.Phosphorus, cpos[nChain-1].Add(xhat.Scale(1.8)))
	b.bond(chain[nChain-1], p, chem.Single)
	oDirs := []chem.Vec3{
		chem.V(0.55, 0.83, 0), chem.V(0.55, -0.42, 0.72), chem.V(0.55, -0.42, -0.72),
	}
	var ox [3]int
	for k, d := range oDirs {
		ox[k] = b.atom(chem.Oxygen, cpos[nChain-1].Add(xhat.Scale(1.8)).Add(d.Scale(1.58)))
		b.bond(p, ox[k], chem.Single)
	}
	zn := b.atom(chem.Zinc, cpos[nChain-1].Add(xhat.Scale(1.8)).
		Add(oDirs[0].Scale(1.58)).Add(yhat.Scale(1.9)))
	b.bond(ox[0], zn, chem.Single)

	b.m.Translate(b.m.Centroid().Neg())
	info := LigandInfo{
		Code:       LargeLigandCode,
		HeavyAtoms: b.m.HeavyAtomCount(),
	}
	return b.m, info
}

// GenerateLargeReceptor deterministically builds the wide-cavity
// receptor of the L2-overflow pair: ~850 pocket atoms on a spherical
// shell from radius 11 to 18 Å with the usual 60° entry channel. The
// large ligand (radius ~16 Å plus the sweep's ±5 Å translations)
// interpenetrates the shell, so peripheral ligand atoms see dense
// neighbour sets — the gather-heavy regime the window-shared gather
// targets — while clashed poses exercise the r⁻¹² wall exactly as
// production screens do.
func GenerateLargeReceptor() (*chem.Molecule, ReceptorInfo) {
	info := ReceptorInfo{
		Code:     LargeReceptorCode,
		Residues: 720,
		PocketR:  11.0,
		Class:    LargeReceptor,
	}
	r := rand.New(rand.NewSource(Seed(LargeReceptorCode) ^ 0x5ec7e7))
	m := &chem.Molecule{Name: LargeReceptorCode}
	const nAtoms = 850
	for i := 0; i < nAtoms; i++ {
		var dir chem.Vec3
		for {
			z := r.Float64()*2 - 1
			phi := r.Float64() * 2 * math.Pi
			s := math.Sqrt(1 - z*z)
			dir = chem.V(s*math.Cos(phi), s*math.Sin(phi), z)
			if dir.Z < 0.5 {
				break
			}
		}
		rad := info.PocketR + r.Float64()*7.0
		pos := dir.Scale(rad)
		elem, name, charge := receptorAtomIdentity(r, i)
		m.Atoms = append(m.Atoms, chem.Atom{
			Serial:  i + 1,
			Name:    name,
			Element: elem,
			Pos:     pos,
			Charge:  charge,
			Residue: residueName(r),
			ResSeq:  i/4 + 1,
			Chain:   "A",
		})
	}
	return m, info
}
