package chem

import (
	"fmt"
	"sort"
)

// Torsion is one rotatable bond of a ligand: rotating it moves every
// atom in Moved about the Axis1-Axis2 axis. This mirrors the BRANCH
// records that prepare_ligand4.py writes into PDBQT files.
type Torsion struct {
	// Axis1 is the axis atom on the root's side of the bond, Axis2 the
	// one on the far side.
	Axis1, Axis2 int
	// Moved is the side of the bond away from the root — everything
	// reachable from Axis2 without crossing back over Axis1, Axis2
	// included (it lies on the axis, so the rotation leaves it where it
	// is) — whether or not that is the smaller side. The root atom is in
	// no Moved set.
	Moved []int
}

// TorsionTree is the flexibility model of a ligand: a root rigid
// fragment plus an ordered list of rotatable bonds, applied one after
// another in that order.
//
// A tree that is ordered — the rule CheckOrder checks, and what
// BuildTorsionTree (breadth-first) and ParsePDBQT (reversed ENDBRANCH
// order) build — meets three conditions. Call torsion j an ancestor of
// torsion k, and k a descendant of j, when Moved_k lies strictly inside
// Moved_j:
//
//   - every pair of Moved sets is nested or disjoint, and no two are
//     equal;
//   - every ancestor comes before its descendants;
//   - a torsion's axis atoms are moved by its ancestors and by no other
//     torsion: Axis2 lies in its own Moved set, Axis1 outside it, and
//     either lies in another torsion's Moved set exactly when that
//     torsion is an ancestor.
//
// On such a tree, turning angle k by δ moves every atom of Moved_k by
// the rotation δ about the axis through the final Axis1 and Axis2
// positions and leaves every other atom where it is, which is what
// makes the torque of a torsion (Vina's gradient) a sum over Moved_k
// in the final coordinates.
type TorsionTree struct {
	Root     int // atom index of the root (heaviest fragment's attachment)
	Torsions []Torsion
}

// NumTorsions returns the number of rotatable bonds (the "torsional
// degrees of freedom" Ntors used by the AD4 entropy term).
func (t *TorsionTree) NumTorsions() int { return len(t.Torsions) }

// BuildTorsionTree detects rotatable bonds and constructs the torsion
// tree of the molecule, following AutoDock's rules:
//
//   - only single, non-aromatic bonds rotate;
//   - bonds inside rings never rotate;
//   - bonds to terminal atoms or to fragments of only hydrogens do not
//     rotate (rotating them is a no-op);
//   - amide C-N bonds are treated as non-rotatable.
//
// The root is the atom with the largest rigid fragment, matching
// prepare_ligand4.py's "largest sub-tree" default.
func BuildTorsionTree(m *Molecule) (*TorsionTree, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(m.Atoms) == 0 {
		return nil, fmt.Errorf("chem: cannot build torsion tree of empty molecule %q", m.Name)
	}
	adj := m.Adjacency()
	inCycle := cycleBonds(m, adj)

	rotatable := make([]Bond, 0)
	for _, b := range m.Bonds {
		if !bondRotatable(m, adj, inCycle, b) {
			continue
		}
		rotatable = append(rotatable, b)
	}

	root := pickRoot(m, adj, rotatable)

	// Breadth-first walk from the root; for each rotatable bond,
	// collect the far-side atom set (the atoms that move).
	tree := &TorsionTree{Root: root}
	rotSet := make(map[[2]int]bool, len(rotatable))
	for _, b := range rotatable {
		rotSet[bondKey(b.A, b.B)] = true
	}
	visited := make([]bool, len(m.Atoms))
	type frame struct{ at, from int }
	queue := []frame{{root, -1}}
	visited[root] = true
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		// Sorted neighbours for deterministic trees.
		nb := append([]int(nil), adj[f.at]...)
		sort.Ints(nb)
		for _, w := range nb {
			if visited[w] {
				continue
			}
			visited[w] = true
			if rotSet[bondKey(f.at, w)] {
				moved := collectSide(adj, w, f.at, len(m.Atoms))
				tree.Torsions = append(tree.Torsions, Torsion{
					Axis1: f.at, Axis2: w, Moved: moved,
				})
			}
			queue = append(queue, frame{w, f.at})
		}
	}
	return tree, nil
}

func bondKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// cycleBonds returns the set of bonds that lie on a cycle — the
// non-bridge edges of the bond graph. This is the precise form of the
// "bonds inside rings never rotate" rule: a bond whose BOTH endpoints
// sit in rings can still rotate when the bond itself is a bridge (a
// biphenyl link, or a chain segment threaded between two ring
// systems), which a coarser test of ring atoms (the graph's 2-core)
// would misclassify.
// Bridges are found with one Tarjan low-link pass per connected
// component; multiple parallel bonds between the same atom pair count
// as a cycle.
func cycleBonds(m *Molecule, adj [][]int) map[[2]int]bool {
	n := len(m.Atoms)
	inCycle := make(map[[2]int]bool)
	mult := make(map[[2]int]int, len(m.Bonds))
	for _, b := range m.Bonds {
		mult[bondKey(b.A, b.B)]++
	}
	for k, c := range mult {
		if c > 1 {
			inCycle[k] = true
		}
	}
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	timer := 0
	type frame struct{ v, parent, next int }
	for start := 0; start < n; start++ {
		if disc[start] != -1 {
			continue
		}
		stack := []frame{{start, -1, 0}}
		disc[start], low[start] = timer, timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(adj[f.v]) {
				w := adj[f.v][f.next]
				f.next++
				if w == f.parent {
					// Skip ONE edge back to the parent; parallel bonds
					// were already marked via mult.
					f.parent = -2
					continue
				}
				if disc[w] != -1 {
					if disc[w] < low[f.v] {
						low[f.v] = disc[w]
					}
					continue
				}
				disc[w], low[w] = timer, timer
				timer++
				stack = append(stack, frame{w, f.v, 0})
				continue
			}
			// Post-order: fold low into the parent and classify the
			// tree edge.
			v := f.v
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := stack[len(stack)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] <= disc[p] {
					inCycle[bondKey(p, v)] = true
				}
			}
		}
	}
	return inCycle
}

func bondRotatable(m *Molecule, adj [][]int, inCycle map[[2]int]bool, b Bond) bool {
	if b.Order != Single {
		return false
	}
	if inCycle[bondKey(b.A, b.B)] {
		return false
	}
	// Terminal bonds cannot usefully rotate.
	if len(adj[b.A]) < 2 || len(adj[b.B]) < 2 {
		return false
	}
	// A side consisting only of hydrogens (e.g. methyl, hydroxyl)
	// contributes no pose change worth a degree of freedom.
	if onlyHydrogensBeyond(m, adj, b.A, b.B) || onlyHydrogensBeyond(m, adj, b.B, b.A) {
		return false
	}
	// Amide bond C(=O)-N: planar, non-rotatable.
	if isAmide(m, adj, b.A, b.B) || isAmide(m, adj, b.B, b.A) {
		return false
	}
	return true
}

// onlyHydrogensBeyond reports whether every atom reachable from `start`
// without crossing back through `block` is a hydrogen.
func onlyHydrogensBeyond(m *Molecule, adj [][]int, block, start int) bool {
	seen := map[int]bool{block: true, start: true}
	stack := []int{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if seen[w] {
				continue
			}
			if m.Atoms[w].Element.IsHeavy() {
				return false
			}
			seen[w] = true
			stack = append(stack, w)
		}
	}
	return true
}

func isAmide(m *Molecule, adj [][]int, c, n int) bool {
	if m.Atoms[c].Element.Normalize() != Carbon || m.Atoms[n].Element.Normalize() != Nitrogen {
		return false
	}
	// carbon double-bonded to an oxygen?
	for _, b := range m.Bonds {
		if b.Order != Double {
			continue
		}
		var other = -1
		if b.A == c {
			other = b.B
		} else if b.B == c {
			other = b.A
		}
		if other >= 0 && m.Atoms[other].Element.Normalize() == Oxygen {
			return true
		}
	}
	return false
}

// pickRoot chooses the atom whose rigid fragment (connected component
// after cutting all rotatable bonds) is largest; ties break to the
// lowest index for determinism.
func pickRoot(m *Molecule, adj [][]int, rotatable []Bond) int {
	cut := make(map[[2]int]bool, len(rotatable))
	for _, b := range rotatable {
		cut[bondKey(b.A, b.B)] = true
	}
	comp := make([]int, len(m.Atoms))
	for i := range comp {
		comp[i] = -1
	}
	sizes := []int{}
	for i := range m.Atoms {
		if comp[i] >= 0 {
			continue
		}
		id := len(sizes)
		n := 0
		stack := []int{i}
		comp[i] = id
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			n++
			for _, w := range adj[v] {
				if comp[w] >= 0 || cut[bondKey(v, w)] {
					continue
				}
				comp[w] = id
				stack = append(stack, w)
			}
		}
		sizes = append(sizes, n)
	}
	best, bestSize := 0, -1
	for i := range m.Atoms {
		if s := sizes[comp[i]]; s > bestSize {
			best, bestSize = i, s
		}
	}
	return best
}

// collectSide returns all atoms reachable from `start` without passing
// through `block`, sorted ascending. These are the atoms moved by the
// torsion whose axis is block→start.
func collectSide(adj [][]int, start, block, n int) []int {
	seen := make([]bool, n)
	seen[block] = true
	seen[start] = true
	out := []int{start}
	stack := []int{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adj[v] {
			if seen[w] {
				continue
			}
			seen[w] = true
			out = append(out, w)
			stack = append(stack, w)
		}
	}
	sort.Ints(out)
	return out
}

// CheckOrder returns nil when the tree meets TorsionTree's ordering
// rule, or an error naming the first torsion, or pair of torsions, that
// breaks it.
func (t *TorsionTree) CheckOrder() error {
	n := 0 // atoms addressed
	for k, tor := range t.Torsions {
		lo := min(tor.Axis1, tor.Axis2)
		n = max(n, tor.Axis1+1, tor.Axis2+1)
		for _, i := range tor.Moved {
			lo, n = min(lo, i), max(n, i+1)
		}
		if lo < 0 {
			return fmt.Errorf("chem: torsion %d addresses atom %d", k, lo)
		}
	}
	in := make([][]bool, len(t.Torsions)) // in[k][i]: torsion k moves atom i
	for k, tor := range t.Torsions {
		in[k] = make([]bool, n)
		for _, i := range tor.Moved {
			if in[k][i] {
				return fmt.Errorf("chem: torsion %d lists atom %d twice", k, i)
			}
			in[k][i] = true
		}
		if !in[k][tor.Axis2] || in[k][tor.Axis1] {
			return fmt.Errorf("chem: torsion %d moves axis atom %d or not axis atom %d", k, tor.Axis1, tor.Axis2)
		}
	}
	for j, tj := range t.Torsions {
		for k, tk := range t.Torsions {
			if j == k {
				continue
			}
			common := 0
			for _, i := range tk.Moved {
				if in[j][i] {
					common++
				}
			}
			inside := common == len(tk.Moved) && len(tk.Moved) < len(tj.Moved) // j is k's ancestor
			around := common == len(tj.Moved) && len(tj.Moved) < len(tk.Moved)
			switch {
			case common > 0 && !inside && !around:
				return fmt.Errorf("chem: torsions %d and %d move overlapping atom sets, neither inside the other", j, k)
			case in[j][tk.Axis1] != inside || in[j][tk.Axis2] != inside:
				return fmt.Errorf("chem: torsion %d moves an axis atom of torsion %d without being its ancestor", j, k)
			case inside && j > k:
				return fmt.Errorf("chem: torsion %d comes after its descendant %d", j, k)
			}
		}
	}
	return nil
}
