package grid

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
)

// latticesEqual compares two lattices to the bit.
func latticesEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSubsetLatticeIndependentOfProbeList is the contract the campaign
// store's one-pass-per-receptor sharing rests on: a probe type's
// affinity lattice, and the elec/desolv lattices, do not depend on
// which other probes rode the Generate pass, in what order, how often
// repeated, or on how many workers.
func TestSubsetLatticeIndependentOfProbeList(t *testing.T) {
	rec := preparedReceptor(t, "1HUC")
	spec := smallSpec(rec)
	union := []chem.AtomType{chem.TypeC, chem.TypeA, chem.TypeN, chem.TypeOA, chem.TypeHD, chem.TypeNA}
	single := map[chem.AtomType]*Maps{}
	for _, ty := range union {
		m, err := GenerateWorkers(rec, spec, []chem.AtomType{ty}, 1)
		if err != nil {
			t.Fatal(err)
		}
		single[ty] = m
	}
	permuted := []chem.AtomType{chem.TypeNA, chem.TypeOA, chem.TypeC, chem.TypeHD, chem.TypeA, chem.TypeN}
	repeated := append(append([]chem.AtomType{chem.TypeOA, chem.TypeOA}, union...), chem.TypeC)
	for _, tc := range []struct {
		name    string
		probes  []chem.AtomType
		workers int
	}{
		{"union/1w", union, 1},
		{"union/4w", union, 4},
		{"permuted/4w", permuted, 4},
		{"repeated/1w", repeated, 1},
	} {
		full, err := GenerateWorkers(rec, spec, tc.probes, tc.workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := full.Types(); len(got) != len(union) {
			t.Fatalf("%s: %d types, want %d", tc.name, len(got), len(union))
		}
		for _, ty := range union {
			one := single[ty]
			if !latticesEqual(full.affinity[ty], one.affinity[ty]) {
				t.Errorf("%s: %s lattice differs from the single-probe pass", tc.name, ty)
			}
			if !latticesEqual(full.elec, one.elec) || !latticesEqual(full.desolv, one.desolv) {
				t.Errorf("%s: elec/desolv differ from the %s-only pass", tc.name, ty)
			}
		}
	}
}

// TestSubsetView checks that a view is indistinguishable from a set
// generated for exactly its types — Types, .fld, every .map file and
// InterPose — while sharing the parent's backing arrays, and that a
// type the parent lacks is refused.
func TestSubsetView(t *testing.T) {
	rec := preparedReceptor(t, "2HHN")
	spec := smallSpec(rec)
	full, err := Generate(rec, spec, []chem.AtomType{chem.TypeC, chem.TypeA, chem.TypeN, chem.TypeOA, chem.TypeHD})
	if err != nil {
		t.Fatal(err)
	}
	want := []chem.AtomType{chem.TypeOA, chem.TypeC, chem.TypeHD}
	view, err := full.Subset(append(want, chem.TypeC)) // a repeat collapses
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Generate(rec, spec, want)
	if err != nil {
		t.Fatal(err)
	}
	gotTypes, wantTypes := view.Types(), direct.Types()
	if len(gotTypes) != len(wantTypes) {
		t.Fatalf("view types %v, want %v", gotTypes, wantTypes)
	}
	for i := range wantTypes {
		if gotTypes[i] != wantTypes[i] {
			t.Fatalf("view types %v, want %v", gotTypes, wantTypes)
		}
	}
	if &view.elec[0] != &full.elec[0] || &view.desolv[0] != &full.desolv[0] ||
		&view.affinity[chem.TypeC][0] != &full.affinity[chem.TypeC][0] {
		t.Error("view copied a lattice instead of sharing the parent's")
	}

	render := func(m *Maps) []byte {
		var buf bytes.Buffer
		if err := m.WriteFLD(&buf); err != nil {
			t.Fatal(err)
		}
		which := []string{"e", "d"}
		for _, ty := range m.Types() {
			which = append(which, string(ty))
		}
		for _, w := range which {
			if err := m.WriteMap(&buf, w); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(view), render(direct)) {
		t.Error("view's .fld/.map output differs from a directly generated set's")
	}
	if err := view.WriteMap(&bytes.Buffer{}, string(chem.TypeN)); err == nil {
		t.Error("view wrote the map of a type outside the subset")
	}

	r := rand.New(rand.NewSource(7))
	span := float64(spec.NPts[0]-1) * spec.Spacing
	for _, ty := range want {
		fv, err := view.AffinityField(ty)
		if err != nil {
			t.Fatal(err)
		}
		fd, err := direct.AffinityField(ty)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			p := spec.Origin().Add(chem.V(
				(r.Float64()*1.2-0.1)*span, (r.Float64()*1.2-0.1)*span, (r.Float64()*1.2-0.1)*span))
			pose, wq, wdq := []chem.Vec3{p}, []float64{-0.05}, []float64{0.02}
			a := view.InterPose(pose, []Field{fv}, 0.1662, wq, wdq)
			b := direct.InterPose(pose, []Field{fd}, 0.1662, wq, wdq)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s at %v: view InterPose %v != direct %v", ty, p, a, b)
			}
		}
	}

	if _, err := view.AffinityField(chem.TypeN); err == nil {
		t.Error("view resolved a type outside the subset")
	}
	if _, err := full.Subset([]chem.AtomType{chem.TypeC, chem.TypeS}); err == nil {
		t.Error("Subset accepted a type the set lacks")
	}
}
