package formats

import (
	"fmt"
	"io"
	"unicode/utf8"

	"repro/internal/chem"
	"repro/internal/textio"
)

func mol2BondString(o chem.BondOrder) string {
	switch o {
	case chem.Double:
		return "2"
	case chem.Triple:
		return "3"
	case chem.Aromatic:
		return "ar"
	default:
		return "1"
	}
}

// WriteMol2 emits a Tripos Mol2 file with SYBYL atom types derived
// from the element (refined typing happens later, in PDBQT).
func WriteMol2(w io.Writer, m *chem.Molecule) error {
	bw := textio.NewWriter(w)
	fmt.Fprintln(bw, "@<TRIPOS>MOLECULE")
	fmt.Fprintln(bw, m.Name)
	fmt.Fprintf(bw, "%5d %5d %5d\n", len(m.Atoms), len(m.Bonds), 1)
	fmt.Fprintln(bw, "SMALL")
	fmt.Fprintln(bw, "GASTEIGER")
	fmt.Fprintln(bw, "@<TRIPOS>ATOM")
	for i, a := range m.Atoms {
		res := a.Residue
		if res == "" {
			res = "LIG"
		}
		// fmt's "%7d %-8s %9.4f %9.4f %9.4f %-5s %3d %-7s %9.4f" of the
		// id, name, coordinates, SYBYL type, substructure 1, residue+"1"
		// and charge.
		b := textio.AppendInt(bw.AvailableBuffer(), i+1, 7)
		b = append(b, ' ')
		b = textio.AppendLeft(b, a.Name, 8)
		b = append(b, ' ')
		b = textio.AppendFixed(b, a.Pos.X, 9, 4)
		b = append(b, ' ')
		b = textio.AppendFixed(b, a.Pos.Y, 9, 4)
		b = append(b, ' ')
		b = textio.AppendFixed(b, a.Pos.Z, 9, 4)
		b = append(b, ' ')
		b = textio.AppendLeft(b, sybylType(a), 5)
		b = append(b, "   1 "...)
		// res+"1" left-aligned in 7 runes: the "1" fills what res leaves.
		b = textio.AppendLeft(append(b, res...), "1", 7-utf8.RuneCountInString(res))
		b = append(b, ' ')
		b = textio.AppendFixed(b, a.Charge, 9, 4)
		bw.Write(append(b, '\n'))
	}
	fmt.Fprintln(bw, "@<TRIPOS>BOND")
	for i, b := range m.Bonds {
		fmt.Fprintf(bw, "%6d %5d %5d %-4s\n", i+1, b.A+1, b.B+1, mol2BondString(b.Order))
	}
	return bw.Flush()
}

func sybylType(a chem.Atom) string {
	switch a.Element.Normalize() {
	case chem.Carbon:
		return "C.3"
	case chem.Nitrogen:
		return "N.3"
	case chem.Oxygen:
		return "O.3"
	case chem.Sulfur:
		return "S.3"
	case chem.Hydrogen:
		return "H"
	default:
		return string(a.Element)
	}
}
