package chem

import (
	"fmt"
	"sort"
)

// BondOrder distinguishes single/double/triple/aromatic bonds, as
// recorded by SDF and Mol2 files.
type BondOrder int

// Bond orders. Aromatic is kept distinct because rotatable-bond
// detection must never rotate aromatic bonds.
const (
	Single   BondOrder = 1
	Double   BondOrder = 2
	Triple   BondOrder = 3
	Aromatic BondOrder = 4
)

// Atom is one atom of a molecule.
type Atom struct {
	Serial  int      // 1-based serial as written in files
	Name    string   // PDB atom name, e.g. "CA", "OD1"
	Element Element  // chemical element
	Type    AtomType // AutoDock type (assigned during preparation)
	Pos     Vec3     // coordinates, Å
	Charge  float64  // partial charge, e (Gasteiger-like, assigned during prep)
	Residue string   // residue name, e.g. "CYS"
	ResSeq  int      // residue sequence number
	Chain   string   // chain identifier
	HetAtm  bool     // true for HETATM records
}

// Bond is an undirected bond between two atoms, referenced by index
// into Molecule.Atoms.
type Bond struct {
	A, B  int
	Order BondOrder
}

// Molecule is a receptor or ligand. Receptors are typically bond-less
// (PDB files carry no CONECT for the protein backbone in this
// workload); ligands carry full bond tables from SDF/Mol2.
type Molecule struct {
	Name  string
	Atoms []Atom
	Bonds []Bond
}

// Clone returns a deep copy of the molecule.
func (m *Molecule) Clone() *Molecule {
	c := &Molecule{Name: m.Name}
	c.Atoms = append([]Atom(nil), m.Atoms...)
	c.Bonds = append([]Bond(nil), m.Bonds...)
	return c
}

// NumAtoms returns the number of atoms.
func (m *Molecule) NumAtoms() int { return len(m.Atoms) }

// HeavyAtomCount returns the number of non-hydrogen atoms.
func (m *Molecule) HeavyAtomCount() int {
	n := 0
	for _, a := range m.Atoms {
		if a.Element.IsHeavy() {
			n++
		}
	}
	return n
}

// Positions returns a freshly allocated slice of all atom coordinates.
func (m *Molecule) Positions() []Vec3 {
	p := make([]Vec3, len(m.Atoms))
	for i, a := range m.Atoms {
		p[i] = a.Pos
	}
	return p
}

// SetPositions overwrites all atom coordinates. It panics if the
// lengths differ, which would indicate a pose/molecule mismatch bug.
func (m *Molecule) SetPositions(p []Vec3) {
	if len(p) != len(m.Atoms) {
		panic(fmt.Sprintf("chem: SetPositions length %d != %d atoms", len(p), len(m.Atoms)))
	}
	for i := range m.Atoms {
		m.Atoms[i].Pos = p[i]
	}
}

// Centroid returns the geometric center of all atoms.
func (m *Molecule) Centroid() Vec3 { return Centroid(m.Positions()) }

// TotalCharge returns the sum of partial charges.
func (m *Molecule) TotalCharge() float64 {
	var s float64
	for _, a := range m.Atoms {
		s += a.Charge
	}
	return s
}

// Translate shifts every atom by d.
func (m *Molecule) Translate(d Vec3) {
	for i := range m.Atoms {
		m.Atoms[i].Pos = m.Atoms[i].Pos.Add(d)
	}
}

// AtomTypes returns the distinct AutoDock atom types present, sorted.
// AutoGrid generates one affinity map per entry.
func (m *Molecule) AtomTypes() []AtomType {
	seen := make(map[AtomType]bool)
	for _, a := range m.Atoms {
		if a.Type != "" {
			seen[a.Type] = true
		}
	}
	out := make([]AtomType, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Adjacency returns, for each atom index, the indices of bonded
// neighbours.
func (m *Molecule) Adjacency() [][]int {
	adj := make([][]int, len(m.Atoms))
	for _, b := range m.Bonds {
		adj[b.A] = append(adj[b.A], b.B)
		adj[b.B] = append(adj[b.B], b.A)
	}
	return adj
}

// PairsApart lists the atom pairs (i < j, ascending by i then j) that
// lie minBonds or more bonds apart in the bond graph, or in different
// components of it: the intramolecular interaction sets of both
// scoring functions (AD4 from three bonds, Vina from four). One
// breadth-first search per source atom, on one reused queue, stops
// expanding at minBonds.
func (m *Molecule) PairsApart(minBonds int) [][2]int {
	n := m.NumAtoms()
	adj := m.Adjacency()
	var pairs [][2]int
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for src := 0; src < n; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			if dist[v] >= minBonds {
				continue
			}
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		for j := src + 1; j < n; j++ {
			if dist[j] < 0 || dist[j] >= minBonds {
				pairs = append(pairs, [2]int{src, j})
			}
		}
	}
	return pairs
}

// PerceiveBonds infers bonds from interatomic distances using covalent
// radii (tolerance 0.45 Å), as Open Babel does for formats without a
// bond table. Existing bonds are replaced. O(n²); fine for ligand-size
// molecules.
func (m *Molecule) PerceiveBonds() {
	m.Bonds = m.Bonds[:0]
	for i := 0; i < len(m.Atoms); i++ {
		ri := m.Atoms[i].Element.Info().CovalentR
		for j := i + 1; j < len(m.Atoms); j++ {
			rj := m.Atoms[j].Element.Info().CovalentR
			max := ri + rj + 0.45
			if m.Atoms[i].Pos.Dist2(m.Atoms[j].Pos) <= max*max {
				m.Bonds = append(m.Bonds, Bond{A: i, B: j, Order: Single})
			}
		}
	}
}

// Validate performs structural sanity checks and returns a descriptive
// error for the first violation found: bond indices in range, no
// self-bonds, finite coordinates. Parsers call this before handing
// molecules to preparation.
func (m *Molecule) Validate() error {
	for i, a := range m.Atoms {
		if a.Pos.X != a.Pos.X || a.Pos.Y != a.Pos.Y || a.Pos.Z != a.Pos.Z {
			return fmt.Errorf("chem: molecule %q atom %d has NaN coordinates", m.Name, i)
		}
	}
	for i, b := range m.Bonds {
		if b.A < 0 || b.A >= len(m.Atoms) || b.B < 0 || b.B >= len(m.Atoms) {
			return fmt.Errorf("chem: molecule %q bond %d references atom out of range", m.Name, i)
		}
		if b.A == b.B {
			return fmt.Errorf("chem: molecule %q bond %d is a self-bond on atom %d", m.Name, i, b.A)
		}
	}
	return nil
}
