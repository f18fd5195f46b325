package chem

import (
	"math"
	"math/rand"
	"testing"
)

// butaneLike: C0-C1-C2-C3 chain with one central rotatable bond
// (terminal C-C bonds have a terminal heavy side but carry only the
// end carbon; the central bond C1-C2 is the classic rotor).
func butaneLike() *Molecule {
	m := &Molecule{Name: "BUT"}
	m.Atoms = []Atom{
		{Name: "C0", Element: Carbon, Pos: V(0, 1, 0)},
		{Name: "C1", Element: Carbon, Pos: V(0, 0, 0)},
		{Name: "C2", Element: Carbon, Pos: V(1.5, 0, 0)},
		{Name: "C3", Element: Carbon, Pos: V(1.5, -1, 0)},
	}
	m.Bonds = []Bond{
		{A: 0, B: 1, Order: Single},
		{A: 1, B: 2, Order: Single},
		{A: 2, B: 3, Order: Single},
	}
	return m
}

func TestTorsionTreeButane(t *testing.T) {
	m := butaneLike()
	tree, err := BuildTorsionTree(m)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumTorsions() != 1 {
		t.Fatalf("butane torsions = %d, want 1", tree.NumTorsions())
	}
	tor := tree.Torsions[0]
	if bondKey(tor.Axis1, tor.Axis2) != bondKey(1, 2) {
		t.Errorf("rotatable bond = %d-%d, want 1-2", tor.Axis1, tor.Axis2)
	}
}

func TestTorsionApplicationChangesDihedral(t *testing.T) {
	m := butaneLike()
	tree, err := BuildTorsionTree(m)
	if err != nil {
		t.Fatal(err)
	}
	base := m.Positions()
	before := Dihedral(base[0], base[1], base[2], base[3])
	rot := tree.ApplyTorsions(base, []float64{math.Pi / 3})
	after := Dihedral(rot[0], rot[1], rot[2], rot[3])
	delta := math.Abs(after - before)
	if delta > math.Pi {
		delta = 2*math.Pi - delta
	}
	if !approx(delta, math.Pi/3, 1e-9) {
		t.Errorf("dihedral change = %v, want pi/3", delta)
	}
	// Bond lengths are preserved.
	for _, b := range m.Bonds {
		d0 := base[b.A].Dist(base[b.B])
		d1 := rot[b.A].Dist(rot[b.B])
		if !approx(d0, d1, 1e-9) {
			t.Errorf("bond %d-%d length changed %v -> %v", b.A, b.B, d0, d1)
		}
	}
}

func TestTorsionZeroAngleIsIdentity(t *testing.T) {
	m := butaneLike()
	tree, _ := BuildTorsionTree(m)
	base := m.Positions()
	out := tree.ApplyTorsions(base, []float64{0})
	for i := range base {
		if !vecApprox(out[i], base[i], eps) {
			t.Fatalf("atom %d moved under zero torsion", i)
		}
	}
}

// Property: applying θ then -θ restores coordinates.
func TestTorsionReversibilityProperty(t *testing.T) {
	m := butaneLike()
	tree, _ := BuildTorsionTree(m)
	base := m.Positions()
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		theta := r.Float64()*2*math.Pi - math.Pi
		fwd := tree.ApplyTorsions(base, []float64{theta})
		back := tree.ApplyTorsions(fwd, []float64{-theta})
		for j := range base {
			if !vecApprox(back[j], base[j], 1e-9) {
				t.Fatalf("iteration %d: atom %d not restored (θ=%v)", i, j, theta)
			}
		}
	}
}

func TestAromaticRingNotRotatable(t *testing.T) {
	// Phenol-like: benzene ring + OH; the C-O bond has only H beyond
	// O, so even that is frozen; ring bonds are never rotatable.
	m := &Molecule{Name: "PHE"}
	for i := 0; i < 6; i++ {
		ang := float64(i) * math.Pi / 3
		m.Atoms = append(m.Atoms, Atom{Element: Carbon, Pos: V(math.Cos(ang)*1.4, math.Sin(ang)*1.4, 0)})
	}
	m.Atoms = append(m.Atoms, Atom{Element: Oxygen, Pos: V(2.8, 0, 0)})
	m.Atoms = append(m.Atoms, Atom{Element: Hydrogen, Pos: V(3.3, 0.8, 0)})
	for i := 0; i < 6; i++ {
		m.Bonds = append(m.Bonds, Bond{A: i, B: (i + 1) % 6, Order: Aromatic})
	}
	m.Bonds = append(m.Bonds, Bond{A: 0, B: 6, Order: Single})
	m.Bonds = append(m.Bonds, Bond{A: 6, B: 7, Order: Single})
	tree, err := BuildTorsionTree(m)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumTorsions() != 0 {
		t.Errorf("phenol torsions = %d, want 0", tree.NumTorsions())
	}
}

func TestAmideNotRotatable(t *testing.T) {
	// N-methylacetamide backbone: C0-C1(=O2)-N3-C4
	m := &Molecule{Name: "NMA"}
	m.Atoms = []Atom{
		{Element: Carbon, Pos: V(-1.5, 0, 0)},
		{Element: Carbon, Pos: V(0, 0, 0)},
		{Element: Oxygen, Pos: V(0.6, 1.1, 0)},
		{Element: Nitrogen, Pos: V(0.7, -1.2, 0)},
		{Element: Carbon, Pos: V(2.1, -1.3, 0)},
	}
	m.Bonds = []Bond{
		{A: 0, B: 1, Order: Single},
		{A: 1, B: 2, Order: Double},
		{A: 1, B: 3, Order: Single}, // the amide bond
		{A: 3, B: 4, Order: Single},
	}
	tree, err := BuildTorsionTree(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tor := range tree.Torsions {
		if bondKey(tor.Axis1, tor.Axis2) == bondKey(1, 3) {
			t.Error("amide C-N bond must not be rotatable")
		}
	}
}

func TestTorsionTreeDeterministic(t *testing.T) {
	m := butaneLike()
	t1, _ := BuildTorsionTree(m)
	t2, _ := BuildTorsionTree(m)
	if t1.Root != t2.Root || len(t1.Torsions) != len(t2.Torsions) {
		t.Fatal("torsion tree not deterministic")
	}
	for i := range t1.Torsions {
		if t1.Torsions[i].Axis1 != t2.Torsions[i].Axis1 ||
			t1.Torsions[i].Axis2 != t2.Torsions[i].Axis2 {
			t.Fatal("torsion order not deterministic")
		}
	}
}

func TestBuildTorsionTreeEmpty(t *testing.T) {
	if _, err := BuildTorsionTree(&Molecule{Name: "E"}); err == nil {
		t.Error("empty molecule should error")
	}
}

func TestApplyTorsionsPanicsOnBadAngles(t *testing.T) {
	m := butaneLike()
	tree, _ := BuildTorsionTree(m)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for wrong angle count")
		}
	}()
	tree.ApplyTorsions(m.Positions(), []float64{0, 0, 0})
}

// chainLike builds a heavy-atom chain with nAtoms carbons and a
// two-carbon branch, giving several genuinely rotatable bonds and a
// non-trivial rigid-unit structure.
func chainLike(nAtoms int) *Molecule {
	m := &Molecule{Name: "CHAIN"}
	for i := 0; i < nAtoms; i++ {
		// Zig-zag so axes are not collinear.
		m.Atoms = append(m.Atoms, Atom{Element: Carbon,
			Pos: V(1.5*float64(i), 0.4*float64(i%2), 0.1*float64(i%3))})
		if i > 0 {
			m.Bonds = append(m.Bonds, Bond{A: i - 1, B: i, Order: Single})
		}
	}
	// Branch off the middle atom.
	mid := nAtoms / 2
	b0 := len(m.Atoms)
	m.Atoms = append(m.Atoms,
		Atom{Element: Carbon, Pos: V(1.5*float64(mid), 1.8, 0.7)},
		Atom{Element: Carbon, Pos: V(1.5*float64(mid)+0.8, 3.0, 0.9)})
	m.Bonds = append(m.Bonds,
		Bond{A: mid, B: b0, Order: Single},
		Bond{A: b0, B: b0 + 1, Order: Single})
	return m
}

// TestRigidUnitsInvariance pins the property Vina's intramolecular groups rely on:
// pairwise distances inside one rigid unit are invariant under any
// torsion angles, and the partition is maximal enough to separate
// atoms across a rotatable bond.
func TestRigidUnitsInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	m := chainLike(11)
	tree, err := BuildTorsionTree(m)
	if err != nil {
		t.Fatal(err)
	}
	base := m.Positions()
	unit := tree.RigidUnits(len(base))
	if len(unit) != len(base) {
		t.Fatalf("unit len %d, want %d", len(unit), len(base))
	}
	nUnits := 0
	for _, u := range unit {
		if int(u)+1 > nUnits {
			nUnits = int(u) + 1
		}
	}
	if nUnits < 2 {
		t.Fatalf("only %d rigid units for %d torsions", nUnits, tree.NumTorsions())
	}
	angles := make([]float64, tree.NumTorsions())
	for trial := 0; trial < 50; trial++ {
		for i := range angles {
			angles[i] = (r.Float64()*2 - 1) * math.Pi
		}
		rot := tree.ApplyTorsions(base, angles)
		crossChanged := false
		for i := 0; i < len(base); i++ {
			for j := i + 1; j < len(base); j++ {
				d0 := base[i].Dist(base[j])
				d1 := rot[i].Dist(rot[j])
				if unit[i] == unit[j] {
					if math.Abs(d0-d1) > 1e-9 {
						t.Fatalf("trial %d: same-unit pair %d-%d distance %v -> %v",
							trial, i, j, d0, d1)
					}
				} else if math.Abs(d0-d1) > 1e-9 {
					crossChanged = true
				}
			}
		}
		if !crossChanged {
			t.Fatalf("trial %d: no cross-unit distance changed; partition too coarse", trial)
		}
	}
	// Axis atoms of a torsion sit on both sides geometrically but must
	// belong to the non-moved unit (they do not rotate).
	for k, tor := range tree.Torsions {
		for _, idx := range tor.Moved {
			if idx == tor.Axis2 {
				continue
			}
			if unit[idx] == unit[tor.Axis1] {
				t.Fatalf("torsion %d: moved atom %d shares unit with axis1 %d", k, idx, tor.Axis1)
			}
		}
	}
}
