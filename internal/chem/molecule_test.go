package chem

import (
	"strings"
	"testing"
)

// ethanolLike builds a small test molecule: C-C-O with hydrogens,
// realistic geometry.
func ethanolLike() *Molecule {
	m := &Molecule{Name: "ETH"}
	m.Atoms = []Atom{
		{Serial: 1, Name: "C1", Element: Carbon, Pos: V(0, 0, 0)},
		{Serial: 2, Name: "C2", Element: Carbon, Pos: V(1.52, 0, 0)},
		{Serial: 3, Name: "O1", Element: Oxygen, Pos: V(2.1, 1.3, 0)},
		{Serial: 4, Name: "H1", Element: Hydrogen, Pos: V(-0.5, 0.9, 0)},
		{Serial: 5, Name: "H2", Element: Hydrogen, Pos: V(-0.5, -0.9, 0)},
		{Serial: 6, Name: "HO", Element: Hydrogen, Pos: V(3.05, 1.2, 0)},
	}
	m.Bonds = []Bond{
		{A: 0, B: 1, Order: Single},
		{A: 1, B: 2, Order: Single},
		{A: 0, B: 3, Order: Single},
		{A: 0, B: 4, Order: Single},
		{A: 2, B: 5, Order: Single},
	}
	return m
}

func TestMoleculeCounts(t *testing.T) {
	m := ethanolLike()
	if m.NumAtoms() != 6 {
		t.Errorf("NumAtoms = %d", m.NumAtoms())
	}
	if m.HeavyAtomCount() != 3 {
		t.Errorf("HeavyAtomCount = %d", m.HeavyAtomCount())
	}
}

func TestMoleculeCloneIndependence(t *testing.T) {
	m := ethanolLike()
	c := m.Clone()
	c.Atoms[0].Pos = V(99, 99, 99)
	c.Bonds[0].Order = Triple
	if m.Atoms[0].Pos == c.Atoms[0].Pos {
		t.Error("clone shares atom storage")
	}
	if m.Bonds[0].Order == Triple {
		t.Error("clone shares bond storage")
	}
}

func TestPositionsRoundTrip(t *testing.T) {
	m := ethanolLike()
	p := m.Positions()
	p[0] = V(5, 5, 5)
	if m.Atoms[0].Pos == p[0] {
		t.Error("Positions should copy")
	}
	m.SetPositions(p)
	if m.Atoms[0].Pos != V(5, 5, 5) {
		t.Error("SetPositions did not apply")
	}
}

func TestSetPositionsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	ethanolLike().SetPositions(make([]Vec3, 2))
}

func TestTranslateAndCentroid(t *testing.T) {
	m := ethanolLike()
	before := m.Centroid()
	m.Translate(V(1, 2, 3))
	after := m.Centroid()
	if !vecApprox(after, before.Add(V(1, 2, 3)), eps) {
		t.Errorf("centroid moved to %v", after)
	}
}

func TestPerceiveBonds(t *testing.T) {
	m := ethanolLike()
	m.Bonds = nil
	m.PerceiveBonds()
	if len(m.Bonds) != 5 {
		t.Fatalf("perceived %d bonds, want 5", len(m.Bonds))
	}
	adj := m.Adjacency()
	if len(adj[0]) != 3 { // C1: C2, H1, H2
		t.Errorf("C1 degree = %d, want 3", len(adj[0]))
	}
}

func TestValidate(t *testing.T) {
	m := ethanolLike()
	if err := m.Validate(); err != nil {
		t.Errorf("valid molecule rejected: %v", err)
	}
	bad := ethanolLike()
	bad.Bonds = append(bad.Bonds, Bond{A: 0, B: 99})
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range bond not caught: %v", err)
	}
	self := ethanolLike()
	self.Bonds = append(self.Bonds, Bond{A: 2, B: 2})
	if err := self.Validate(); err == nil || !strings.Contains(err.Error(), "self-bond") {
		t.Errorf("self-bond not caught: %v", err)
	}
}

func TestAtomTypesSorted(t *testing.T) {
	m := ethanolLike()
	m.Atoms[0].Type = TypeC
	m.Atoms[1].Type = TypeC
	m.Atoms[2].Type = TypeOA
	m.Atoms[5].Type = TypeHD
	got := m.AtomTypes()
	if len(got) != 3 || got[0] != TypeC || got[1] != TypeHD || got[2] != TypeOA {
		t.Errorf("AtomTypes = %v", got)
	}
}

func TestElementTable(t *testing.T) {
	if Mercury.Info().DockSupported {
		t.Error("Hg must be dock-unsupported (paper §V.C)")
	}
	if Element("cl").Normalize() != Chlorine {
		t.Error("normalize cl failed")
	}
	if Element("CL").Info().Number != 17 {
		t.Error("case-insensitive lookup failed")
	}
	if Hydrogen.IsHeavy() {
		t.Error("H is not heavy")
	}
	if !Carbon.IsHeavy() {
		t.Error("C is heavy")
	}
}

func TestTypeParams(t *testing.T) {
	if TypeHD.Params().HBond != 1 {
		t.Error("HD is donor hydrogen")
	}
	if TypeOA.Params().HBond < 2 {
		t.Error("OA is acceptor")
	}
	if TypeC.Params().HBond != 0 {
		t.Error("C is neither donor nor acceptor")
	}
	if !TypeC.Params().Hydroph || TypeOA.Params().Hydroph {
		t.Error("hydrophobic flags wrong")
	}
	if TypeHg.Params().Supported {
		t.Error("Hg type must be unsupported")
	}
	if p := AtomType("Q?").Params(); p.Supported {
		t.Error("unknown type must be unsupported")
	}
	if len(AllTypes()) == 0 {
		t.Error("AllTypes empty")
	}
	for _, typ := range AllTypes() {
		if !typ.Params().Supported {
			t.Errorf("AllTypes contains unsupported %s", typ)
		}
	}
}

func TestTypeForElement(t *testing.T) {
	cases := map[Element]AtomType{
		Hydrogen: TypeH, Carbon: TypeC, Nitrogen: TypeN, Oxygen: TypeOA,
		Sulfur: TypeS, Mercury: TypeHg, Element("Xq"): TypeC,
	}
	for e, want := range cases {
		if got := TypeForElement(e); got != want {
			t.Errorf("TypeForElement(%s) = %s, want %s", e, got, want)
		}
	}
}
