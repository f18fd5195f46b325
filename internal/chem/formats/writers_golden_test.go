package formats

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"testing"

	"repro/internal/chem"
	"repro/internal/data"
)

// goldenMolecules is every molecule the writer goldens render: all 238
// dataset receptors, all 42 dataset ligands, the 9XLR/XL1 pair, and one
// molecule whose coordinates, charges and names sit on every formatting
// edge — rounding ties and carries, −0, subnormals, tiny negatives that
// round to −0.000, values past the fixed-point fast path, infinities,
// NaN, multi-byte names and over-wide fields.
func goldenMolecules() []*chem.Molecule {
	var mols []*chem.Molecule
	for _, code := range data.ReceptorCodes {
		m, _ := data.GenerateReceptor(code)
		mols = append(mols, m)
	}
	for _, code := range data.LigandCodes {
		m, _ := data.GenerateLigand(code)
		mols = append(mols, m)
	}
	xr, _ := data.GenerateLargeReceptor()
	xl, _ := data.GenerateLargeLigand()
	mols = append(mols, xr, xl)

	edges := []float64{
		0, math.Copysign(0, -1), 0.0005, 0.0015, 0.0025, -0.0005, -0.00049,
		0.00005, 0.00015, 0.5, 1.5, 2.5, -2.5, 9.9995, 99.99949999, 999.9995,
		-999.9995, 12345.6785, 1e-300, -1e-300, 5e-324, -5e-324, 1e7, -1e7,
		123456789.125, 9.2e14, -9.2e14, 4.5e15, 1e17, 1e20, -1e20, 1e300,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1.0 / 3, -2.0 / 3,
	}
	edge := &chem.Molecule{Name: "edge case ±"}
	names := []string{"", "C", "CA", "Cα", "HG12", "LONGNAME", "ÅÅÅÅÅ"}
	for i := range edges {
		x := edges[i]
		y := edges[(i+7)%len(edges)]
		z := edges[(i+13)%len(edges)]
		edge.Atoms = append(edge.Atoms, chem.Atom{
			Serial:  []int{0, 7, 99999, 123456, -3}[i%5],
			Name:    names[i%len(names)],
			Element: []chem.Element{chem.Carbon, chem.Nitrogen, chem.Mercury, "Xx", "", chem.Chlorine}[i%6],
			Pos:     chem.V(x, y, z),
			Charge:  edges[(i+19)%len(edges)],
			Residue: []string{"", "ALA", "GLYX", "é"}[i%4],
			ResSeq:  []int{0, -12, 9999, 123456}[i%4],
			Chain:   []string{"", "B", "AB"}[i%3],
			HetAtm:  i%2 == 0,
			Type:    []chem.AtomType{"", chem.TypeOA, chem.TypeHD, "Hg"}[i%4],
		})
	}
	for i := 0; i+1 < len(edge.Atoms); i += 3 {
		edge.Bonds = append(edge.Bonds, chem.Bond{A: i, B: i + 1, Order: chem.BondOrder(1 + i%4)})
	}
	return append(mols, edge)
}

// writerDigest renders every golden molecule with render and folds the
// outputs, each behind its length, into one SHA-256.
func writerDigest(t *testing.T, render func(io.Writer, *chem.Molecule) error) string {
	t.Helper()
	h := sha256.New()
	var buf bytes.Buffer
	for _, m := range goldenMolecules() {
		buf.Reset()
		if err := render(&buf, m); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(buf.Len()))
		h.Write(n[:])
		h.Write(buf.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestWritersGolden pins the bytes of the PDB, SDF and Mol2 writers,
// and of the PDBQT and DLG atom records, on the dataset molecules and
// the edge-case molecule. The digests were recorded from the fmt-based
// renderers before any of them moved onto internal/textio's append
// helpers; a renderer change that claims to preserve output must leave
// them unedited.
func TestWritersGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		render func(io.Writer, *chem.Molecule) error
		want   string
	}{
		{"pdb", WritePDB, "a499fc7bd82530c39ef22c66c188173eb5f098a743e1de8d4934b25213ce412b"},
		{"sdf", WriteSDF, "ff3e645751a9ddf506f5c5a70141ef52ecfb5fd83a0f694e0d12a87bfd598b1e"},
		{"mol2", WriteMol2, "a8b445c38c59b4979a4279dad8f66972961dc53141bde2bd9953c7ce30b16172"},
		{"pdbqt+dlg", func(w io.Writer, m *chem.Molecule) error {
			if err := WritePDBQTReceptor(w, m); err != nil {
				return err
			}
			d := &DLG{
				Program: "AutoDock 4.2.5.1", Receptor: "R", Ligand: m.Name, Seed: -7,
				Docked: m,
			}
			for i, a := range m.Atoms {
				d.Runs = append(d.Runs, DLGRun{Run: i + 1, FEB: a.Pos.X, RMSD: a.Pos.Y, ClusterN: a.ResSeq})
			}
			return WriteDLG(w, d)
		}, "81d27ba754c982f04c12fe11035d42c12a7a326f39792b80c666149a283bca80"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := writerDigest(t, tc.render); got != tc.want {
				t.Errorf("%s digest = %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}
