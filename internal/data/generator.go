package data

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/chem"
	"repro/internal/lazyrand"
)

// SizeClass categorizes a receptor for SciDock's docking filter
// (activity 6): small receptors go to AutoDock 4, large ones to Vina.
type SizeClass int

// Receptor size classes.
const (
	SmallReceptor SizeClass = iota
	LargeReceptor
)

func (s SizeClass) String() string {
	if s == SmallReceptor {
		return "small"
	}
	return "large"
}

// ReceptorInfo is the metadata of a synthetic receptor.
type ReceptorInfo struct {
	Code       string
	Residues   int // synthetic residue count; drives the size filter
	PocketR    float64
	ContainsHg bool // triggers the §V.C abort routine
	Class      SizeClass
}

// Seed derives a stable 64-bit seed from a dataset code. All synthetic
// structure generation keys off this, making every run reproducible.
func Seed(code string) int64 {
	h := fnv.New64a()
	h.Write([]byte(code))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// residueClassThreshold splits receptors into AD4 vs Vina datasets.
// With the synthetic residue distribution below, about half the
// receptors land on each side, matching the paper's two scenarios.
const residueClassThreshold = 330

// ReceptorMeta returns the deterministic metadata of the receptor
// without generating its coordinates (cheap; used by the docking
// filter and by workload planning).
func ReceptorMeta(code string) ReceptorInfo {
	r := lazyrand.New(Seed(code))
	residues := 180 + r.Intn(300) // 180..479 synthetic residues
	info := ReceptorInfo{
		Code:     code,
		Residues: residues,
		PocketR:  7.0 + r.Float64()*3.0, // pocket radius 7..10 Å
		// ~2.5% of receptors carry a catalytic-site mercury derivative
		// (heavy-atom phasing artefact), as discovered via provenance
		// in §V.C.
		ContainsHg: r.Intn(40) == 0,
	}
	if residues < residueClassThreshold {
		info.Class = SmallReceptor
	} else {
		info.Class = LargeReceptor
	}
	return info
}

// GenerateReceptor synthesizes the 3D binding-pocket structure of a
// receptor. Atoms are placed on a rough spherical shell around the
// pocket centre (the origin), forming a cavity the ligand can enter;
// elements and positions are deterministic per code.
//
// Only the pocket region is materialized (120–420 atoms): docking
// scores depend on pocket atoms, while the receptor's overall size is
// carried as metadata (ReceptorInfo.Residues), keeping grid generation
// tractable at 10,000-pair scale.
func GenerateReceptor(code string) (*chem.Molecule, ReceptorInfo) {
	info := ReceptorMeta(code)
	r := rand.New(rand.NewSource(Seed(code) ^ 0x5ec7e7))
	nAtoms := 120 + int(float64(info.Residues-180)/299.0*300.0) // 120..420
	// One more slot for the mercury atom a ContainsHg receptor gets.
	m := &chem.Molecule{Name: code, Atoms: make([]chem.Atom, 0, nAtoms+1)}
	// Shell radii: pocket wall starts at PocketR and is ~5 Å thick.
	for i := 0; i < nAtoms; i++ {
		// Spherical direction, leaving a 60°-wide entry channel
		// around +z open (cos θ > 0.5 excluded).
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
		rad := info.PocketR + r.Float64()*5.0
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
	if info.ContainsHg {
		// Mercury derivative sits near the catalytic site.
		m.Atoms = append(m.Atoms, chem.Atom{
			Serial:  len(m.Atoms) + 1,
			Name:    "HG",
			Element: chem.Mercury,
			Pos:     chem.V(0, 0, -info.PocketR),
			Charge:  1.0,
			Residue: "HG",
			ResSeq:  len(m.Atoms)/4 + 1,
			Chain:   "A",
			HetAtm:  true,
		})
	}
	return m, info
}

func receptorAtomIdentity(r *rand.Rand, i int) (chem.Element, string, float64) {
	switch x := r.Float64(); {
	case x < 0.62:
		return chem.Carbon, fmt.Sprintf("C%d", i+1), -0.02 + r.Float64()*0.12
	case x < 0.78:
		return chem.Nitrogen, fmt.Sprintf("N%d", i+1), -0.42 + r.Float64()*0.18
	case x < 0.94:
		return chem.Oxygen, fmt.Sprintf("O%d", i+1), -0.52 + r.Float64()*0.18
	case x < 0.985:
		return chem.Sulfur, fmt.Sprintf("S%d", i+1), -0.14 + r.Float64()*0.1
	default:
		return chem.Hydrogen, fmt.Sprintf("H%d", i+1), 0.16 + r.Float64()*0.14
	}
}

var residueNames = []string{
	"ALA", "ARG", "ASN", "ASP", "CYS", "GLN", "GLU", "GLY", "HIS",
	"ILE", "LEU", "LYS", "MET", "PHE", "PRO", "SER", "THR", "TRP",
	"TYR", "VAL",
}

func residueName(r *rand.Rand) string {
	return residueNames[r.Intn(len(residueNames))]
}

// LigandInfo is the metadata of a synthetic ligand.
type LigandInfo struct {
	Code        string
	HeavyAtoms  int
	Problematic bool // reproduces the "looping state" ligands of §V.C
}

// LigandMeta returns deterministic ligand metadata without building
// coordinates.
func LigandMeta(code string) LigandInfo {
	r := lazyrand.New(Seed(code) ^ 0x11a44d)
	info := LigandInfo{
		Code:       code,
		HeavyAtoms: 8 + r.Intn(18), // 8..25 heavy atoms
		// ~7% of ligands drive the docking programs into a loop that
		// only scientist intervention (or SciCumulus steering) stops.
		Problematic: r.Intn(15) == 0,
	}
	// The four ligands of Table 3 have complete docking statistics in
	// the paper, so they are well-behaved by construction.
	for _, t3 := range Table3Ligands {
		if code == t3 {
			info.Problematic = false
		}
	}
	return info
}

// GenerateLigand synthesizes a drug-like flexible small molecule for a
// het code: a branched chain grown with tetrahedral-ish geometry,
// realistic elements, a handful of polar hydrogens and rotatable
// bonds. Output is in SDF-style coordinates centred at the origin.
func GenerateLigand(code string) (*chem.Molecule, LigandInfo) {
	info := LigandMeta(code)
	r := rand.New(rand.NewSource(Seed(code) ^ 0x9e3779))
	m := &chem.Molecule{Name: code}

	// Grow a self-avoiding chain of heavy atoms with branch points.
	positions := []chem.Vec3{{}}
	parents := []int{-1}
	for len(positions) < info.HeavyAtoms {
		// Attach to a random existing atom with low degree.
		p := r.Intn(len(positions))
		deg := 0
		for _, q := range parents {
			if q == p {
				deg++
			}
		}
		if parents[p] >= 0 {
			deg++
		}
		if deg >= 3 {
			continue
		}
		// Bond length ~1.5 Å in a random direction biased away from
		// the parent to avoid clashes.
		var dir chem.Vec3
		for tries := 0; ; tries++ {
			z := r.Float64()*2 - 1
			phi := r.Float64() * 2 * math.Pi
			s := math.Sqrt(1 - z*z)
			dir = chem.V(s*math.Cos(phi), s*math.Sin(phi), z)
			cand := positions[p].Add(dir.Scale(1.5))
			ok := true
			for _, q := range positions {
				if cand.Dist2(q) < 1.2*1.2 {
					ok = false
					break
				}
			}
			if ok || tries > 40 {
				positions = append(positions, cand)
				parents = append(parents, p)
				break
			}
		}
	}

	for i, pos := range positions {
		elem := ligandElement(r)
		if i == 0 {
			elem = chem.Carbon
		}
		m.Atoms = append(m.Atoms, chem.Atom{
			Serial:  i + 1,
			Name:    fmt.Sprintf("%s%d", elem, i+1),
			Element: elem,
			Pos:     pos,
			HetAtm:  true,
			Residue: code,
		})
		if parents[i] >= 0 {
			order := chem.Single
			// Occasional double bonds on carbon-carbon pairs create
			// rigid segments (and amide-like motifs).
			if r.Float64() < 0.15 &&
				m.Atoms[parents[i]].Element == chem.Carbon && elem == chem.Carbon {
				order = chem.Double
			}
			m.Bonds = append(m.Bonds, chem.Bond{A: parents[i], B: i, Order: order})
		}
	}

	// Polar hydrogens on N/O atoms with free valence.
	adj := m.Adjacency()
	nHeavy := len(m.Atoms)
	for i := 0; i < nHeavy; i++ {
		e := m.Atoms[i].Element
		if (e == chem.Nitrogen || e == chem.Oxygen) && len(adj[i]) <= 2 && r.Float64() < 0.7 {
			hpos := m.Atoms[i].Pos.Add(randomUnit(r).Scale(1.0))
			m.Atoms = append(m.Atoms, chem.Atom{
				Serial:  len(m.Atoms) + 1,
				Name:    fmt.Sprintf("H%d", len(m.Atoms)+1),
				Element: chem.Hydrogen,
				Pos:     hpos,
				HetAtm:  true,
				Residue: code,
			})
			m.Bonds = append(m.Bonds, chem.Bond{A: i, B: len(m.Atoms) - 1, Order: chem.Single})
		}
	}

	// Centre at the origin, as het-group SDF exports are.
	m.Translate(m.Centroid().Neg())
	return m, info
}

func ligandElement(r *rand.Rand) chem.Element {
	switch x := r.Float64(); {
	case x < 0.66:
		return chem.Carbon
	case x < 0.82:
		return chem.Nitrogen
	case x < 0.95:
		return chem.Oxygen
	case x < 0.975:
		return chem.Sulfur
	case x < 0.99:
		return chem.Fluorine
	default:
		return chem.Chlorine
	}
}

func randomUnit(r *rand.Rand) chem.Vec3 {
	z := r.Float64()*2 - 1
	phi := r.Float64() * 2 * math.Pi
	s := math.Sqrt(1 - z*z)
	return chem.V(s*math.Cos(phi), s*math.Sin(phi), z)
}
