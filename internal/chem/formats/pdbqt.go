package formats

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/chem"
	"repro/internal/textio"
)

// PDBQTLigand bundles a parsed ligand with the torsion tree encoded in
// its ROOT/BRANCH records.
type PDBQTLigand struct {
	Mol  *chem.Molecule
	Tree *chem.TorsionTree
}

// WritePDBQTReceptor emits a rigid receptor PDBQT: ATOM records
// extended with partial charge and AutoDock atom type, exactly what
// prepare_receptor4.py produces.
func WritePDBQTReceptor(w io.Writer, m *chem.Molecule) error {
	bw := textio.NewWriter(w)
	fmt.Fprintf(bw, "REMARK  receptor %s prepared by scidock-go\n", m.Name)
	for i, a := range m.Atoms {
		writePDBQTAtom(bw, i+1, a)
	}
	fmt.Fprintln(bw, "TER")
	return bw.Flush()
}

// WritePDBQTLigand emits a flexible-ligand PDBQT with nested
// ROOT/BRANCH records derived from the torsion tree, terminated by a
// TORSDOF record, following prepare_ligand4.py's layout.
func WritePDBQTLigand(w io.Writer, m *chem.Molecule, tree *chem.TorsionTree) error {
	bw := textio.NewWriter(w)
	fmt.Fprintf(bw, "REMARK  ligand %s prepared by scidock-go\n", m.Name)
	fmt.Fprintf(bw, "REMARK  %d active torsions\n", tree.NumTorsions())

	adj := m.Adjacency()
	rot := make(map[[2]int]bool, len(tree.Torsions))
	for _, t := range tree.Torsions {
		rot[orderedPair(t.Axis1, t.Axis2)] = true
	}

	// Serial numbers are assigned in emission order, as AutoDock does.
	serial := 0
	serialOf := make([]int, len(m.Atoms))
	visited := make([]bool, len(m.Atoms))

	// emitFragment writes the rigid fragment containing `start`
	// (stopping at rotatable bonds), then recurses into each branch.
	var emitFragment func(start, from int)
	emitFragment = func(start, from int) {
		// Collect the rigid fragment by DFS bounded by rotatable bonds.
		frag := []int{}
		stack := []int{start}
		visited[start] = true
		var branches [][2]int // (axisAtomInFragment, firstAtomBeyond)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			frag = append(frag, v)
			nb := append([]int(nil), adj[v]...)
			sort.Ints(nb)
			for _, wIdx := range nb {
				if visited[wIdx] {
					continue
				}
				if rot[orderedPair(v, wIdx)] {
					branches = append(branches, [2]int{v, wIdx})
					continue
				}
				visited[wIdx] = true
				stack = append(stack, wIdx)
			}
		}
		sort.Ints(frag)
		for _, idx := range frag {
			serial++
			serialOf[idx] = serial
			writePDBQTAtom(bw, serial, m.Atoms[idx])
		}
		sort.Slice(branches, func(i, j int) bool {
			if branches[i][0] != branches[j][0] {
				return branches[i][0] < branches[j][0]
			}
			return branches[i][1] < branches[j][1]
		})
		for _, br := range branches {
			if visited[br[1]] {
				continue
			}
			fmt.Fprintf(bw, "BRANCH %3d %3d\n", serialOf[br[0]], serial+1)
			emitFragment(br[1], br[0])
			fmt.Fprintf(bw, "ENDBRANCH %3d %3d\n", serialOf[br[0]], serialOf[br[1]])
		}
	}

	fmt.Fprintln(bw, "ROOT")
	// Emit the root fragment atoms, close ROOT, then branches. To
	// match AutoDock's layout the ROOT section contains only the root
	// rigid fragment; we therefore split emitFragment's two phases.
	frag, branches := rigidFragment(m, adj, rot, tree.Root, visited)
	for _, idx := range frag {
		serial++
		serialOf[idx] = serial
		writePDBQTAtom(bw, serial, m.Atoms[idx])
	}
	fmt.Fprintln(bw, "ENDROOT")
	for _, br := range branches {
		if visited[br[1]] {
			continue
		}
		fmt.Fprintf(bw, "BRANCH %3d %3d\n", serialOf[br[0]], serial+1)
		emitFragment(br[1], br[0])
		fmt.Fprintf(bw, "ENDBRANCH %3d %3d\n", serialOf[br[0]], serialOf[br[1]])
	}
	fmt.Fprintf(bw, "TORSDOF %d\n", tree.NumTorsions())
	return bw.Flush()
}

// WritePDBQTModels emits a multi-model PDBQT (Vina's *_out.pdbqt
// layout): one MODEL block per pose, each carrying the docked
// coordinates with the molecule's charges and types. Poses are
// coordinate sets aligned with mol.Atoms.
func WritePDBQTModels(w io.Writer, mol *chem.Molecule, poses [][]chem.Vec3, febs []float64) error {
	if len(poses) != len(febs) {
		return fmt.Errorf("formats: %d poses but %d energies", len(poses), len(febs))
	}
	bw := textio.NewWriter(w)
	for m, pose := range poses {
		if len(pose) != len(mol.Atoms) {
			return fmt.Errorf("formats: model %d has %d coordinates for %d atoms",
				m+1, len(pose), len(mol.Atoms))
		}
		fmt.Fprintf(bw, "MODEL %d\n", m+1)
		fmt.Fprintf(bw, "REMARK VINA RESULT: %8.1f\n", febs[m])
		for i, a := range mol.Atoms {
			a.Pos = pose[i]
			writePDBQTAtom(bw, i+1, a)
		}
		fmt.Fprintln(bw, "ENDMDL")
	}
	return bw.Flush()
}

// ParsePDBQTModels reads a multi-model PDBQT written by
// WritePDBQTModels, returning the shared molecule (from the first
// model) and the per-model coordinate sets.
func ParsePDBQTModels(r io.Reader, name string) (*chem.Molecule, [][]chem.Vec3, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var mol *chem.Molecule
	var poses [][]chem.Vec3
	var cur []chem.Vec3
	var curAtoms []chem.Atom
	lineNo := 0
	flush := func() error {
		if cur == nil {
			return nil
		}
		if mol == nil {
			mol = &chem.Molecule{Name: name, Atoms: curAtoms}
		} else if len(cur) != len(mol.Atoms) {
			return fmt.Errorf("formats: pdbqt models %q: inconsistent atom counts", name)
		}
		poses = append(poses, cur)
		cur = nil
		curAtoms = nil
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "MODEL"):
			if err := flush(); err != nil {
				return nil, nil, err
			}
			cur = []chem.Vec3{}
		case strings.HasPrefix(line, "ENDMDL"):
			if err := flush(); err != nil {
				return nil, nil, err
			}
		case strings.HasPrefix(line, "ATOM") || strings.HasPrefix(line, "HETATM"):
			a, err := parsePDBQTAtom(line)
			if err != nil {
				return nil, nil, fmt.Errorf("formats: pdbqt models %q line %d: %w", name, lineNo, err)
			}
			if cur == nil {
				cur = []chem.Vec3{}
			}
			cur = append(cur, a.Pos)
			curAtoms = append(curAtoms, a)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("formats: pdbqt models %q: %w", name, err)
	}
	if err := flush(); err != nil {
		return nil, nil, err
	}
	if mol == nil || len(poses) == 0 {
		return nil, nil, fmt.Errorf("formats: pdbqt models %q: no models", name)
	}
	return mol, poses, nil
}

// rigidFragment collects the rigid fragment containing start (marking
// visited) and the rotatable-bond crossings out of it.
func rigidFragment(m *chem.Molecule, adj [][]int, rot map[[2]int]bool, start int, visited []bool) (frag []int, branches [][2]int) {
	stack := []int{start}
	visited[start] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		frag = append(frag, v)
		nb := append([]int(nil), adj[v]...)
		sort.Ints(nb)
		for _, w := range nb {
			if visited[w] {
				continue
			}
			if rot[orderedPair(v, w)] {
				branches = append(branches, [2]int{v, w})
				continue
			}
			visited[w] = true
			stack = append(stack, w)
		}
	}
	sort.Ints(frag)
	sort.Slice(branches, func(i, j int) bool {
		if branches[i][0] != branches[j][0] {
			return branches[i][0] < branches[j][0]
		}
		return branches[i][1] < branches[j][1]
	})
	return frag, branches
}

func orderedPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

func writePDBQTAtom(w io.Writer, serial int, a chem.Atom) {
	res := a.Residue
	if res == "" {
		res = "LIG"
	}
	chain := a.Chain
	if chain == "" {
		chain = "A"
	}
	rec := "ATOM  "
	if a.HetAtm {
		rec = "HETATM"
	}
	typ := a.Type
	if typ == "" {
		typ = chem.TypeForElement(a.Element)
	}
	fmt.Fprintf(w, "%s%5d %-4s %-3s %1s%4d    %8.3f%8.3f%8.3f%6.2f%6.2f    %6.3f %-2s\n",
		rec, serial, pdbAtomName(a.Name), res, chain, a.ResSeq,
		a.Pos.X, a.Pos.Y, a.Pos.Z, 1.0, 0.0, a.Charge, string(typ))
}

// ParsePDBQT reads a PDBQT file. For receptor files the returned
// ligand has a tree with zero torsions; for ligand files the
// ROOT/BRANCH structure is reconstructed into a TorsionTree whose
// atom indices refer to the parse order.
func ParsePDBQT(r io.Reader, name string) (*PDBQTLigand, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	m := &chem.Molecule{Name: name}
	tree := &chem.TorsionTree{}
	type openBranch struct {
		axisSerial int
		firstAtom  int // index of first atom inside the branch
	}
	var stack []openBranch
	serialToIndex := make(map[int]int)
	torsdof := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "ATOM") || strings.HasPrefix(line, "HETATM"):
			a, err := parsePDBQTAtom(line)
			if err != nil {
				return nil, fmt.Errorf("formats: pdbqt %q line %d: %w", name, lineNo, err)
			}
			serialToIndex[a.Serial] = len(m.Atoms)
			m.Atoms = append(m.Atoms, a)
		case strings.HasPrefix(line, "BRANCH"):
			f := strings.Fields(line)
			if len(f) < 3 {
				return nil, fmt.Errorf("formats: pdbqt %q line %d: short BRANCH", name, lineNo)
			}
			axis, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, fmt.Errorf("formats: pdbqt %q line %d: bad BRANCH serial: %w", name, lineNo, err)
			}
			stack = append(stack, openBranch{axisSerial: axis, firstAtom: len(m.Atoms)})
		case strings.HasPrefix(line, "ENDBRANCH"):
			if len(stack) == 0 {
				return nil, fmt.Errorf("formats: pdbqt %q line %d: unmatched ENDBRANCH", name, lineNo)
			}
			ob := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			a1, ok := serialToIndex[ob.axisSerial]
			if !ok || ob.firstAtom >= len(m.Atoms) {
				return nil, fmt.Errorf("formats: pdbqt %q line %d: empty or dangling branch", name, lineNo)
			}
			moved := make([]int, 0, len(m.Atoms)-ob.firstAtom)
			for i := ob.firstAtom; i < len(m.Atoms); i++ {
				moved = append(moved, i)
			}
			tree.Torsions = append(tree.Torsions, chem.Torsion{
				Axis1: a1, Axis2: ob.firstAtom, Moved: moved,
			})
		case strings.HasPrefix(line, "TORSDOF"):
			f := strings.Fields(line)
			if len(f) >= 2 {
				// A malformed count keeps the previous value rather
				// than silently zeroing the declared torsion DOF.
				if v, err := strconv.Atoi(f[1]); err == nil {
					torsdof = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("formats: pdbqt %q: %w", name, err)
	}
	if len(m.Atoms) == 0 {
		return nil, fmt.Errorf("formats: pdbqt %q has no atoms", name)
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("formats: pdbqt %q: %d unclosed BRANCH records", name, len(stack))
	}
	if torsdof >= 0 && torsdof != len(tree.Torsions) {
		return nil, fmt.Errorf("formats: pdbqt %q: TORSDOF %d but %d BRANCH records",
			name, torsdof, len(tree.Torsions))
	}
	// Inner branches were appended before their parents (stack pop
	// order); reverse to get root-outward application order.
	for i, j := 0, len(tree.Torsions)-1; i < j; i, j = i+1, j-1 {
		tree.Torsions[i], tree.Torsions[j] = tree.Torsions[j], tree.Torsions[i]
	}
	return &PDBQTLigand{Mol: m, Tree: tree}, m.Validate()
}

func parsePDBQTAtom(line string) (chem.Atom, error) {
	if len(line) < 79 {
		line = line + strings.Repeat(" ", 79-len(line))
	}
	a, err := parsePDBAtom(line[:54] + strings.Repeat(" ", 26))
	if err != nil {
		return a, err
	}
	a.HetAtm = strings.HasPrefix(line, "HETATM")
	q, err := strconv.ParseFloat(strings.TrimSpace(line[66:76]), 64)
	if err != nil {
		return a, fmt.Errorf("bad charge %q", strings.TrimSpace(line[66:76]))
	}
	a.Charge = q
	typ := strings.TrimSpace(line[76:79])
	if typ == "" {
		return a, fmt.Errorf("missing atom type")
	}
	a.Type = chem.AtomType(typ)
	a.Element = elementForType(a.Type)
	return a, nil
}

// elementForType inverts the AutoDock typing for element recovery.
func elementForType(t chem.AtomType) chem.Element {
	switch t {
	case chem.TypeH, chem.TypeHD:
		return chem.Hydrogen
	case chem.TypeC, chem.TypeA:
		return chem.Carbon
	case chem.TypeN, chem.TypeNA:
		return chem.Nitrogen
	case chem.TypeOA:
		return chem.Oxygen
	case chem.TypeS, chem.TypeSA:
		return chem.Sulfur
	default:
		return chem.Element(t).Normalize()
	}
}
