package data

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/chem"
)

func TestTable2Counts(t *testing.T) {
	if len(ReceptorCodes) != 238 {
		t.Errorf("receptors = %d, want 238 (Table 2)", len(ReceptorCodes))
	}
	if len(LigandCodes) != 42 {
		t.Errorf("ligands = %d, want 42 (Table 2)", len(LigandCodes))
	}
	seen := map[string]bool{}
	for _, c := range ReceptorCodes {
		if seen[c] {
			t.Errorf("duplicate receptor code %s", c)
		}
		seen[c] = true
		if len(c) != 4 {
			t.Errorf("receptor code %q not 4 chars", c)
		}
	}
	seenL := map[string]bool{}
	for _, c := range LigandCodes {
		if seenL[c] {
			t.Errorf("duplicate ligand code %s", c)
		}
		seenL[c] = true
	}
	for _, c := range Table3Ligands {
		if !seenL[c] {
			t.Errorf("Table 3 ligand %s missing from Table 2", c)
		}
	}
}

func TestFullDatasetScale(t *testing.T) {
	d := Full()
	if got := d.NumPairs(); got != 238*42 {
		t.Errorf("full pairs = %d", got)
	}
	// "all-out 10,000 receptor-ligand pairs"
	if d.NumPairs() < 9996 {
		t.Errorf("full sweep %d below the paper's ~10,000", d.NumPairs())
	}
	if got := Table3().NumPairs(); got != 952 {
		t.Errorf("table3 pairs = %d, want 952 (≈1,000)", got)
	}
}

func TestPairsOrderLigandMajor(t *testing.T) {
	d := Dataset{Receptors: []string{"R1", "R2"}, Ligands: []string{"L1", "L2"}}
	p := d.Pairs()
	want := []Pair{{"R1", "L1"}, {"R2", "L1"}, {"R1", "L2"}, {"R2", "L2"}}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("pairs[%d] = %v, want %v", i, p[i], want[i])
		}
	}
}

func TestSmallValidation(t *testing.T) {
	if _, err := Small(0, 1); err == nil {
		t.Error("nr=0 accepted")
	}
	if _, err := Small(1, 999); err == nil {
		t.Error("nl too large accepted")
	}
	d, err := Small(3, 2)
	if err != nil || d.NumPairs() != 6 {
		t.Errorf("Small(3,2) = %v, %v", d, err)
	}
}

func TestGenerateReceptorDeterministic(t *testing.T) {
	a, ia := GenerateReceptor("2HHN")
	b, ib := GenerateReceptor("2HHN")
	if ia != ib {
		t.Fatalf("info not deterministic: %+v vs %+v", ia, ib)
	}
	if a.NumAtoms() != b.NumAtoms() {
		t.Fatalf("atom count varies: %d vs %d", a.NumAtoms(), b.NumAtoms())
	}
	for i := range a.Atoms {
		if a.Atoms[i].Pos != b.Atoms[i].Pos || a.Atoms[i].Element != b.Atoms[i].Element {
			t.Fatalf("atom %d differs between runs", i)
		}
	}
	c, _ := GenerateReceptor("1HUC")
	if c.NumAtoms() == a.NumAtoms() && c.Atoms[0].Pos == a.Atoms[0].Pos {
		t.Error("different codes produced identical structures")
	}
}

func TestGenerateReceptorShape(t *testing.T) {
	m, info := GenerateReceptor("1AEC")
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumAtoms() < 120 || m.NumAtoms() > 430 {
		t.Errorf("receptor atoms = %d outside pocket range", m.NumAtoms())
	}
	if info.Residues < 180 || info.Residues >= 480 {
		t.Errorf("residues = %d", info.Residues)
	}
	// Pocket property: no atom closer than ~PocketR-0.5 to the centre.
	for i, a := range m.Atoms {
		if a.Element == chem.Mercury {
			continue
		}
		if d := a.Pos.Norm(); d < info.PocketR-0.5 {
			t.Errorf("atom %d at %.2f Å inside pocket radius %.2f", i, d, info.PocketR)
		}
	}
}

func TestReceptorSizeClassesBothPresent(t *testing.T) {
	small, large, hg := 0, 0, 0
	for _, code := range ReceptorCodes {
		info := ReceptorMeta(code)
		switch info.Class {
		case SmallReceptor:
			small++
		case LargeReceptor:
			large++
		}
		if info.ContainsHg {
			hg++
		}
	}
	if small == 0 || large == 0 {
		t.Errorf("size classes degenerate: small=%d large=%d", small, large)
	}
	// Both scenarios must be non-trivial (>20% each).
	if small < 48 || large < 48 {
		t.Errorf("unbalanced classes: small=%d large=%d", small, large)
	}
	if hg == 0 {
		t.Error("no Hg receptors; §V.C fault path untestable")
	}
	if hg > 20 {
		t.Errorf("too many Hg receptors: %d", hg)
	}
}

func TestHgReceptorsContainHg(t *testing.T) {
	found := false
	for _, code := range ReceptorCodes {
		info := ReceptorMeta(code)
		if !info.ContainsHg {
			continue
		}
		found = true
		m, _ := GenerateReceptor(code)
		hasHg := false
		for _, a := range m.Atoms {
			hasHg = hasHg || a.Element == chem.Mercury
		}
		if !hasHg {
			t.Errorf("receptor %s flagged Hg but has none", code)
		}
	}
	if !found {
		t.Skip("no Hg receptor in set")
	}
}

func TestGenerateLigandDeterministicAndValid(t *testing.T) {
	for _, code := range Table3Ligands {
		a, ia := GenerateLigand(code)
		b, ib := GenerateLigand(code)
		if ia != ib || a.NumAtoms() != b.NumAtoms() {
			t.Fatalf("ligand %s not deterministic", code)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("ligand %s invalid: %v", code, err)
		}
		if a.HeavyAtomCount() < 8 || a.HeavyAtomCount() > 25 {
			t.Errorf("ligand %s heavy atoms = %d", code, a.HeavyAtomCount())
		}
		// Connected bond graph: every atom reachable from 0.
		adj := a.Adjacency()
		seen := make([]bool, a.NumAtoms())
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					count++
					stack = append(stack, w)
				}
			}
		}
		if count != a.NumAtoms() {
			t.Errorf("ligand %s disconnected: %d of %d reachable", code, count, a.NumAtoms())
		}
	}
}

func TestLigandsHaveTorsions(t *testing.T) {
	withTorsions := 0
	for _, code := range LigandCodes {
		m, _ := GenerateLigand(code)
		tree, err := chem.BuildTorsionTree(m)
		if err != nil {
			t.Fatalf("ligand %s: %v", code, err)
		}
		if tree.NumTorsions() > 0 {
			withTorsions++
		}
	}
	// Flexible ligands dominate the CP-specific set.
	if withTorsions < len(LigandCodes)*3/4 {
		t.Errorf("only %d/%d ligands flexible", withTorsions, len(LigandCodes))
	}
}

func TestProblematicLigandsExist(t *testing.T) {
	n := 0
	for _, code := range LigandCodes {
		if LigandMeta(code).Problematic {
			n++
		}
	}
	if n == 0 {
		t.Error("no problematic ligands; §V.C loop path untestable")
	}
	if n > len(LigandCodes)/3 {
		t.Errorf("too many problematic ligands: %d", n)
	}
}

func TestSeedStability(t *testing.T) {
	// Seeds feed provenance records; they must not change across
	// releases. Pin two values.
	if Seed("2HHN") != Seed("2HHN") {
		t.Error("seed not stable within a run")
	}
	if Seed("2HHN") == Seed("0E6") {
		t.Error("seed collision between codes")
	}
	if Seed("x") < 0 {
		t.Error("seed must be non-negative")
	}
}

// TestMetaDrawsEqualFreshGenerators pins ReceptorMeta and LigandMeta,
// which draw from a lazyrand generator, to the draws a fresh
// rand.New(rand.NewSource(seed)) takes, for every dataset code, the
// large pair and a few codes outside the dataset.
func TestMetaDrawsEqualFreshGenerators(t *testing.T) {
	codes := append([]string{LargeReceptorCode, LargeLigandCode, "", "x", "not a code"}, ReceptorCodes...)
	codes = append(codes, LigandCodes...)
	for _, code := range codes {
		r := rand.New(rand.NewSource(Seed(code)))
		residues, pocket, hg := 180+r.Intn(300), 7.0+r.Float64()*3.0, r.Intn(40) == 0
		got := ReceptorMeta(code)
		if got.Residues != residues || math.Float64bits(got.PocketR) != math.Float64bits(pocket) || got.ContainsHg != hg {
			t.Fatalf("ReceptorMeta(%q) = %+v, fresh generator draws %d, %v, %v", code, got, residues, pocket, hg)
		}
		r = rand.New(rand.NewSource(Seed(code) ^ 0x11a44d))
		heavy, problematic := 8+r.Intn(18), r.Intn(15) == 0 && !slices.Contains(Table3Ligands, code)
		if l := LigandMeta(code); l.HeavyAtoms != heavy || l.Problematic != problematic {
			t.Fatalf("LigandMeta(%q) = %+v, fresh generator draws %d, %v", code, l, heavy, problematic)
		}
	}
}
