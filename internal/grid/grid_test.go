package grid

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/dock/tables"
	"repro/internal/prep"
)

func preparedReceptor(t testing.TB, code string) *chem.Molecule {
	t.Helper()
	rec, _ := data.GenerateReceptor(code)
	out, err := prep.PrepareReceptor(rec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func smallSpec(rec *chem.Molecule) Spec {
	min, max := chem.BoundingBox(rec.Positions())
	return Spec{Center: min.Lerp(max, 0.5), NPts: [3]int{12, 12, 12}, Spacing: 2.0}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{NPts: [3]int{2, 2, 2}, Spacing: 1}).Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	if err := (Spec{NPts: [3]int{1, 2, 2}, Spacing: 1}).Validate(); err == nil {
		t.Error("npts=1 accepted")
	}
	if err := (Spec{NPts: [3]int{2, 2, 2}, Spacing: 0}).Validate(); err == nil {
		t.Error("zero spacing accepted")
	}
}

func TestSpecOrigin(t *testing.T) {
	s := Spec{Center: chem.V(0, 0, 0), NPts: [3]int{11, 11, 11}, Spacing: 1}
	if got := s.Origin(); !vecClose(got, chem.V(-5, -5, -5), 1e-12) {
		t.Errorf("origin = %v", got)
	}
	if s.NumPoints() != 11*11*11 {
		t.Errorf("NumPoints = %d", s.NumPoints())
	}
}

func vecClose(a, b chem.Vec3, tol float64) bool { return a.Dist(b) <= tol }

// carbonField resolves the TypeC affinity lattice every lookup test
// reads.
func carbonField(t *testing.T, m *Maps) Field {
	t.Helper()
	f, err := m.AffinityField(chem.TypeC)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestGenerateAndInterpolate(t *testing.T) {
	rec := preparedReceptor(t, "2HHN")
	spec := smallSpec(rec)
	maps, err := Generate(rec, spec, []chem.AtomType{chem.TypeC, chem.TypeOA, chem.TypeHD})
	if err != nil {
		t.Fatal(err)
	}
	if len(maps.Types()) != 3 {
		t.Errorf("types = %v", maps.Types())
	}
	// Lattice-point lookups equal stored values (interpolation exact
	// at nodes): probe the centre.
	c := spec.Center
	carbon := carbonField(t, maps)
	v := carbon.At(c)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Errorf("affinity at centre = %v", v)
	}
	if !maps.InBox(c) {
		t.Error("centre not in box")
	}
	// Outside the box: penalty.
	far := c.Add(chem.V(1e3, 0, 0))
	if maps.InBox(far) {
		t.Error("far point in box")
	}
	if got := carbon.At(far); got != OutOfBoxPenalty {
		t.Errorf("out-of-box affinity = %v", got)
	}
	if maps.ElectrostaticField().At(far) != OutOfBoxPenalty {
		t.Error("out-of-box electrostatics not penalized")
	}
	// Missing map type errors.
	if _, err := maps.AffinityField(chem.TypeZn); err == nil {
		t.Error("missing map accepted")
	}
}

func TestGenerateErrors(t *testing.T) {
	rec := preparedReceptor(t, "1AIM")
	if _, err := Generate(rec, Spec{}, nil); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := Generate(&chem.Molecule{Name: "E"}, smallSpec(rec), nil); err == nil {
		t.Error("empty receptor accepted")
	}
	if _, err := Generate(rec, smallSpec(rec), []chem.AtomType{chem.TypeHg}); err == nil {
		t.Error("unsupported probe accepted")
	}
	hg := rec.Clone()
	hg.Atoms = append(hg.Atoms, chem.Atom{Name: "HG", Element: chem.Mercury, Type: chem.TypeHg})
	if _, err := Generate(hg, smallSpec(rec), []chem.AtomType{chem.TypeC}); err == nil {
		t.Error("Hg receptor accepted by autogrid")
	}
}

// Interpolation must be continuous: neighbouring queries give close
// values, and node queries match direct map values.
func TestInterpolationContinuity(t *testing.T) {
	rec := preparedReceptor(t, "1HUC")
	spec := smallSpec(rec)
	maps, err := Generate(rec, spec, []chem.AtomType{chem.TypeC})
	if err != nil {
		t.Fatal(err)
	}
	carbon := carbonField(t, maps)
	r := rand.New(rand.NewSource(5))
	o := spec.Origin()
	extent := float64(spec.NPts[0]-2) * spec.Spacing
	for i := 0; i < 200; i++ {
		p := o.Add(chem.V(r.Float64()*extent, r.Float64()*extent, r.Float64()*extent))
		v1 := carbon.At(p)
		v2 := carbon.At(p.Add(chem.V(1e-7, 0, 0)))
		if math.Abs(v1-v2) > 1 {
			t.Fatalf("discontinuity at %v: %v vs %v", p, v1, v2)
		}
	}
}

// The pocket centre of a receptor should be attractive (negative
// affinity) for a carbon probe: this is the physical sanity check that
// docking can find favourable poses at all.
func TestPocketIsAttractive(t *testing.T) {
	rec, info := data.GenerateReceptor("1S4V")
	prec, err := prep.PrepareReceptor(rec)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Center: chem.Vec3{}, NPts: [3]int{10, 10, 10}, Spacing: 1.0}
	maps, err := Generate(prec, spec, []chem.AtomType{chem.TypeC})
	if err != nil {
		t.Fatal(err)
	}
	if v := carbonField(t, maps).At(chem.Vec3{}); v >= 0 {
		t.Errorf("pocket centre affinity = %v (pocket radius %.1f), want attractive", v, info.PocketR)
	}
}

func TestPairEnergyShape(t *testing.T) {
	c := chem.TypeC.Params()
	// Minimum at r = Rij, repulsive well inside, attractive outside.
	rij := c.Rii
	atMin := tables.PairEnergy(c, c, rij)
	if !closeTo(atMin, -c.Epsii, 1e-9) {
		t.Errorf("well depth = %v, want %v", atMin, -c.Epsii)
	}
	if tables.PairEnergy(c, c, rij*0.7) < 0 {
		t.Error("short range should be repulsive")
	}
	if e := tables.PairEnergy(c, c, rij*1.5); e >= 0 || e < atMin {
		t.Errorf("long range energy = %v, want in (%v, 0)", e, atMin)
	}
	// H-bond pair deeper than dispersion pair.
	hd := chem.TypeHD.Params()
	oa := chem.TypeOA.Params()
	hbondMin := tables.PairEnergy(hd, oa, (hd.Rii+oa.Rii)/2)
	plainMin := -math.Sqrt(hd.Epsii * oa.Epsii)
	if hbondMin >= plainMin {
		t.Errorf("hbond well %v not deeper than plain %v", hbondMin, plainMin)
	}
}

func closeTo(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMapFileRoundTrip(t *testing.T) {
	rec := preparedReceptor(t, "1PIP")
	// Exactly representable centre so the %.3f header round-trips.
	spec := Spec{Center: chem.V(0.5, -1.25, 2), NPts: [3]int{6, 6, 6}, Spacing: 2}
	maps, err := Generate(rec, spec, []chem.AtomType{chem.TypeC})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := maps.WriteMap(&buf, "C"); err != nil {
		t.Fatal(err)
	}
	got, err := ParseMap(bytes.NewReader(buf.Bytes()), "C", "t.map")
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.NPts != spec.NPts {
		t.Errorf("npts = %v", got.Spec.NPts)
	}
	if math.Abs(got.Spec.Spacing-spec.Spacing) > 1e-9 {
		t.Errorf("spacing = %v", got.Spec.Spacing)
	}
	// Values survive within write precision at a lattice node.
	p := spec.Origin()
	v1 := carbonField(t, maps).At(p)
	v2 := carbonField(t, got).At(p)
	// Out-of-precision clamped values still match within 0.01.
	if math.Abs(v1-v2) > 0.01 && math.Abs(v1-v2)/math.Abs(v1+1e-12) > 1e-3 {
		t.Errorf("value drift: %v vs %v", v1, v2)
	}
	// Electrostatic and desolvation map files round-trip too.
	buf.Reset()
	if err := maps.WriteMap(&buf, "e"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseMap(bytes.NewReader(buf.Bytes()), "e", "t.e.map"); err != nil {
		t.Fatal(err)
	}
	// Unknown map name errors.
	if err := maps.WriteMap(&buf, "Zn"); err == nil {
		t.Error("unknown map written")
	}
}

func TestParseMapErrors(t *testing.T) {
	if _, err := ParseMap(bytes.NewReader([]byte("SPACING x\n")), "C", "t"); err == nil {
		t.Error("bad spacing accepted")
	}
	short := "SPACING 1\nNELEMENTS 2 2 2\nCENTER 0 0 0\n1.0\n"
	if _, err := ParseMap(bytes.NewReader([]byte(short)), "C", "t"); err == nil {
		t.Error("value-count mismatch accepted")
	}
}

func TestWriteFLD(t *testing.T) {
	rec := preparedReceptor(t, "1PAD")
	spec := Spec{Center: rec.Centroid(), NPts: [3]int{4, 4, 4}, Spacing: 3}
	maps, err := Generate(rec, spec, []chem.AtomType{chem.TypeC, chem.TypeOA})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := maps.WriteFLD(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"ndim=3", "dim1=4", ".e.map", ".d.map"} {
		if !bytes.Contains([]byte(s), []byte(want)) {
			t.Errorf("fld missing %q", want)
		}
	}
}

// TestTypesDeterministicOrder pins Types() to sorted order regardless
// of map insertion order. Types() feeds the .fld index WriteFLD emits
// and the per-type map filenames, so a regression here (ranging the
// affinity map directly) would make output files differ run to run.
func TestTypesDeterministicOrder(t *testing.T) {
	insertions := [][]chem.AtomType{
		{chem.TypeSA, chem.TypeC, chem.TypeOA, chem.TypeHD, chem.TypeNA, chem.TypeA},
		{chem.TypeA, chem.TypeNA, chem.TypeHD, chem.TypeOA, chem.TypeC, chem.TypeSA},
		{chem.TypeOA, chem.TypeSA, chem.TypeA, chem.TypeC, chem.TypeNA, chem.TypeHD},
	}
	want := []chem.AtomType{chem.TypeA, chem.TypeC, chem.TypeHD, chem.TypeNA, chem.TypeOA, chem.TypeSA}
	for _, order := range insertions {
		m := &Maps{affinity: map[chem.AtomType][]float32{}}
		for _, at := range order {
			m.affinity[at] = nil
		}
		// Repeat the call: Go randomizes map iteration per range, so a
		// single lucky draw must not pass the test.
		for i := 0; i < 50; i++ {
			got := m.Types()
			if len(got) != len(want) {
				t.Fatalf("Types() = %v, want %v", got, want)
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("iteration %d, insertion %v: Types() = %v, want %v", i, order, got, want)
				}
			}
		}
	}
}

// The table-backed Generate must agree with the serial analytic
// reference at every lattice node within the table error bound.
func TestGenerateMatchesReference(t *testing.T) {
	rec := preparedReceptor(t, "2HHN")
	spec := smallSpec(rec)
	types := []chem.AtomType{chem.TypeC, chem.TypeOA, chem.TypeHD, chem.TypeN}
	fast, err := Generate(rec, spec, types)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := generateReference(rec, spec, types)
	if err != nil {
		t.Fatal(err)
	}
	tol := func(want float64) float64 { return 1e-3 + 2e-4*math.Abs(want) }
	compare := func(name string, got, want []float32) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
		}
		for i := range want {
			if d := math.Abs(float64(got[i]) - float64(want[i])); d > tol(float64(want[i])) {
				t.Fatalf("%s[%d]: table %v vs analytic %v (|Δ|=%v)", name, i, got[i], want[i], d)
			}
		}
	}
	compare("elec", fast.elec, ref.elec)
	compare("desolv", fast.desolv, ref.desolv)
	for _, ty := range types {
		compare(string(ty), fast.affinity[ty], ref.affinity[ty])
	}
}

// The z-slab decomposition is Spec-deterministic: the written map
// files must be byte-identical for every worker count.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	rec := preparedReceptor(t, "1HUC")
	spec := smallSpec(rec)
	types := []chem.AtomType{chem.TypeC, chem.TypeOA}
	mapBytes := func(m *Maps) []byte {
		var buf bytes.Buffer
		for _, name := range []string{"C", "OA", "e", "d"} {
			if err := m.WriteMap(&buf, name); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	base, err := GenerateWorkers(rec, spec, types, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := mapBytes(base)
	for _, workers := range []int{2, 3, 8, 64} {
		m, err := GenerateWorkers(rec, spec, types, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mapBytes(m), want) {
			t.Fatalf("map files differ between 1 and %d workers", workers)
		}
	}
}

func benchSpec(rec *chem.Molecule) (Spec, []chem.AtomType) {
	return Spec{Center: rec.Centroid(), NPts: [3]int{24, 24, 24}, Spacing: 1.0},
		[]chem.AtomType{chem.TypeC, chem.TypeN, chem.TypeOA, chem.TypeHD}
}

func BenchmarkGenerateMaps(b *testing.B) {
	rec := preparedReceptor(b, "2HHN")
	spec, types := benchSpec(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(rec, spec, types); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateMapsSerial times one-worker map generation on both
// sides of its build-versus-walk trade-off: every Generate builds the
// receptor's fine-cell candidate lists once, then walks them per
// lattice point. On the 24³ lattice at 1 Å the walk dominates; on the
// smoke-effort 10³ lattice at 2.2 Å the build is most of the cost.
func BenchmarkGenerateMapsSerial(b *testing.B) {
	rec := preparedReceptor(b, "2HHN")
	spec, types := benchSpec(rec)
	smoke := spec
	smoke.NPts, smoke.Spacing = [3]int{10, 10, 10}, 2.2
	for _, tc := range []struct {
		name string
		spec Spec
	}{{"24pts_1.0A", spec}, {"10pts_2.2A", smoke}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := GenerateWorkers(rec, tc.spec, types, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGenerateMapsReference(b *testing.B) {
	rec := preparedReceptor(b, "2HHN")
	spec, types := benchSpec(rec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := generateReference(rec, spec, types); err != nil {
			b.Fatal(err)
		}
	}
}

func TestPairEnergySmoothed(t *testing.T) {
	c := chem.TypeC.Params()
	rij := c.Rii
	// Inside the window around the minimum: flat at the well depth.
	for _, r := range []float64{rij - 0.2, rij, rij + 0.2} {
		if got := tables.PairEnergySmoothed(c, c, r, 0.5); !closeTo(got, -c.Epsii, 1e-9) {
			t.Errorf("smoothed(%v) = %v, want %v", r, got, -c.Epsii)
		}
	}
	// Outside the window: shifted toward the minimum by smooth/2.
	r := rij + 1.0
	if got, want := tables.PairEnergySmoothed(c, c, r, 0.5), tables.PairEnergy(c, c, r-0.25); !closeTo(got, want, 1e-12) {
		t.Errorf("right side smoothed = %v, want %v", got, want)
	}
	r = rij - 1.0
	if got, want := tables.PairEnergySmoothed(c, c, r, 0.5), tables.PairEnergy(c, c, r+0.25); !closeTo(got, want, 1e-12) {
		t.Errorf("left side smoothed = %v, want %v", got, want)
	}
	// Smoothing never raises the energy.
	for r := 2.0; r < 8; r += 0.1 {
		if tables.PairEnergySmoothed(c, c, r, 0.5) > tables.PairEnergy(c, c, r)+1e-12 {
			t.Fatalf("smoothing raised energy at r=%v", r)
		}
	}
	// Zero smooth is the raw potential.
	if tables.PairEnergySmoothed(c, c, 3.3, 0) != tables.PairEnergy(c, c, 3.3) {
		t.Error("zero smooth changed potential")
	}
}

func TestMehlerSolmajerDielectric(t *testing.T) {
	// Near contact: low dielectric (screened vacuum-like).
	if e := tables.Dielectric(1.0); e < 1 || e > 10 {
		t.Errorf("ε(1Å) = %v, want small", e)
	}
	// Long range: approaches bulk water (~78).
	if e := tables.Dielectric(50); e < 60 || e > 79 {
		t.Errorf("ε(50Å) = %v, want near 78", e)
	}
	// Monotone increasing.
	prev := 0.0
	for r := 0.5; r < 30; r += 0.5 {
		e := tables.Dielectric(r)
		if e < prev {
			t.Fatalf("dielectric not monotone at r=%v", r)
		}
		prev = e
	}
}

// InterPose — the AD4 scorer's intermolecular walk — must be
// bit-equal to the weighted Field.At reads it replaces, added to one
// running sum atom by atom in vdW/electrostatic/desolvation order,
// inside the box and on the out-of-box penalty path, for one-atom
// poses and for one pose of every point.
func TestInterPoseMatchesFieldAt(t *testing.T) {
	rec := preparedReceptor(t, "2HHN")
	spec := smallSpec(rec)
	m, err := GenerateWorkers(rec, spec, []chem.AtomType{chem.TypeC, chem.TypeOA}, 1)
	if err != nil {
		t.Fatal(err)
	}
	fC := carbonField(t, m)
	fe, fd := m.ElectrostaticField(), m.DesolvationField()
	r := rand.New(rand.NewSource(31))
	span := chem.V(
		float64(spec.NPts[0]-1)*spec.Spacing,
		float64(spec.NPts[1]-1)*spec.Spacing,
		float64(spec.NPts[2]-1)*spec.Spacing,
	)
	const n = 500
	const wv = 0.1662
	coords := make([]chem.Vec3, n)
	aff, wq, wdq := make([]Field, n), make([]float64, n), make([]float64, n)
	var want float64
	for i := range coords {
		// Mostly inside the box, sometimes outside (penalty path).
		p := spec.Origin().Add(chem.V(
			(r.Float64()*1.2-0.1)*span.X,
			(r.Float64()*1.2-0.1)*span.Y,
			(r.Float64()*1.2-0.1)*span.Z,
		))
		coords[i], aff[i] = p, fC
		wq[i], wdq[i] = -0.05*float64(i%7-3), 0.02*float64(i%5)
		var one float64
		for _, term := range []float64{wv * fC.At(p), wq[i] * fe.At(p), wdq[i] * fd.At(p)} {
			one += term
			want += term
		}
		if got := m.InterPose(coords[i:i+1], aff[i:i+1], wv, wq[i:i+1], wdq[i:i+1]); got != one {
			t.Fatalf("point %d: one-atom InterPose %v != Field.At sum %v", i, got, one)
		}
	}
	if got := m.InterPose(coords, aff, wv, wq, wdq); got != want {
		t.Fatalf("%d-atom InterPose %v != Field.At sum %v", n, got, want)
	}
}
