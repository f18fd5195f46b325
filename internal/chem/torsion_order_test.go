package chem_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/chem"
	"repro/internal/chem/formats"
	"repro/internal/data"
	"repro/internal/prep"
)

// TestTorsionTreeOrder pins the ordering rule Vina's torsion gradient
// relies on (chem.TorsionTree): every tree BuildTorsionTree builds over the
// dataset ligands and the large one meets it, and so does the tree
// ParsePDBQT reads back from WritePDBQTLigand's output; the same trees
// with their torsion order reversed break it, as do trees whose Moved
// sets overlap without nesting or whose axis atom another branch moves.
func TestTorsionTreeOrder(t *testing.T) {
	raws := []*chem.Molecule{}
	for _, code := range data.LigandCodes {
		raw, _ := data.GenerateLigand(code)
		raws = append(raws, raw)
	}
	large, _ := data.GenerateLargeLigand()
	raws = append(raws, large)
	nested := 0
	for _, raw := range raws {
		mol2, err := prep.ConvertSDFToMol2(raw)
		if err != nil {
			t.Fatalf("%s: %v", raw.Name, err)
		}
		pl, err := prep.PrepareLigand(mol2)
		if err != nil {
			t.Fatalf("%s: %v", raw.Name, err)
		}
		tree, err := chem.BuildTorsionTree(pl.Mol)
		if err != nil {
			t.Fatal(err)
		}
		if err := tree.CheckOrder(); err != nil {
			t.Fatalf("%s: BuildTorsionTree's tree is not ordered: %v", raw.Name, err)
		}
		var buf bytes.Buffer
		if err := formats.WritePDBQTLigand(&buf, pl.Mol, tree); err != nil {
			t.Fatal(err)
		}
		parsed, err := formats.ParsePDBQT(&buf, raw.Name)
		if err != nil {
			t.Fatal(err)
		}
		if err := parsed.Tree.CheckOrder(); err != nil {
			t.Fatalf("%s: ParsePDBQT's tree is not ordered: %v", raw.Name, err)
		}
		for _, tr := range []*chem.TorsionTree{tree, parsed.Tree} {
			if !hasNestedPair(tr) {
				continue
			}
			nested++
			reversed := &chem.TorsionTree{Root: tr.Root, Torsions: slices.Clone(tr.Torsions)}
			slices.Reverse(reversed.Torsions)
			if err := reversed.CheckOrder(); err == nil {
				t.Fatalf("%s: the reversed tree passes the ordering rule", raw.Name)
			}
		}
	}
	if nested == 0 {
		t.Fatal("fixture: no tree has a branch inside another")
	}

	// Hand-made trees over a chain 0-1-2-3-4.
	for name, torsions := range map[string][]chem.Torsion{
		"overlapping":    {{Axis1: 0, Axis2: 1, Moved: []int{1, 2, 3}}, {Axis1: 1, Axis2: 2, Moved: []int{2, 3, 4}}},
		"equal":          {{Axis1: 0, Axis2: 1, Moved: []int{1, 2}}, {Axis1: 0, Axis2: 1, Moved: []int{1, 2}}},
		"moved axis1":    {{Axis1: 1, Axis2: 2, Moved: []int{1, 2, 3}}},
		"unmoved axis2":  {{Axis1: 0, Axis2: 1, Moved: []int{2, 3}}},
		"stray axis":     {{Axis1: 0, Axis2: 1, Moved: []int{1, 2}}, {Axis1: 2, Axis2: 3, Moved: []int{3, 4}}},
		"duplicate atom": {{Axis1: 0, Axis2: 1, Moved: []int{1, 2, 2}}},
		"negative atom":  {{Axis1: -1, Axis2: 1, Moved: []int{1, 2}}},
		"descendant first": {
			{Axis1: 2, Axis2: 3, Moved: []int{3, 4}}, {Axis1: 1, Axis2: 2, Moved: []int{2, 3, 4}},
		},
	} {
		if err := (&chem.TorsionTree{Torsions: torsions}).CheckOrder(); err == nil {
			t.Errorf("%s: tree passes the ordering rule", name)
		}
	}
	ordered := &chem.TorsionTree{Torsions: []chem.Torsion{
		{Axis1: 1, Axis2: 2, Moved: []int{2, 3, 4}}, {Axis1: 2, Axis2: 3, Moved: []int{3, 4}},
	}}
	if err := ordered.CheckOrder(); err != nil {
		t.Errorf("a chain of two nested branches: %v", err)
	}
}

// hasNestedPair reports whether some torsion's Moved set holds another
// torsion's axis atom: a tree where order matters.
func hasNestedPair(tr *chem.TorsionTree) bool {
	for j, tj := range tr.Torsions {
		for k, tk := range tr.Torsions {
			if j != k && slices.Contains(tj.Moved, tk.Axis2) {
				return true
			}
		}
	}
	return false
}
