// Package formats reads and writes the molecular file formats that
// flow through the SciDock workflow: PDB (receptors from RCSB), SDF
// (ligand input), Mol2 (Babel's output), PDBQT (AutoDock's prepared
// format) and DLG (AutoDock docking logs).
//
// All parsers are line-oriented, tolerant of trailing whitespace, and
// return descriptive errors carrying line numbers — the workflow's
// fault-tolerance layer surfaces these through provenance.
package formats

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/chem"
	"repro/internal/textio"
)

// ParsePDB reads a Protein Data Bank file, collecting ATOM and HETATM
// records. CONECT records are honoured when present; otherwise the
// molecule is returned bond-less (receptors are treated as rigid, so
// bonds are not required downstream).
func ParsePDB(r io.Reader, name string) (*chem.Molecule, error) {
	m := &chem.Molecule{Name: name}
	serialToIndex := make(map[int]int)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if len(line) < 6 {
			continue
		}
		rec := strings.TrimSpace(line[:6])
		switch rec {
		case "ATOM", "HETATM":
			a, err := parsePDBAtom(line)
			if err != nil {
				return nil, fmt.Errorf("formats: pdb %q line %d: %w", name, lineNo, err)
			}
			a.HetAtm = rec == "HETATM"
			serialToIndex[a.Serial] = len(m.Atoms)
			m.Atoms = append(m.Atoms, a)
		case "CONECT":
			fields := strings.Fields(line[6:])
			if len(fields) < 2 {
				continue
			}
			from, err := strconv.Atoi(fields[0])
			if err != nil {
				continue
			}
			fi, ok := serialToIndex[from]
			if !ok {
				continue
			}
			for _, f := range fields[1:] {
				to, err := strconv.Atoi(f)
				if err != nil {
					continue
				}
				ti, ok := serialToIndex[to]
				if !ok || ti <= fi {
					continue // each bond recorded once
				}
				m.Bonds = append(m.Bonds, chem.Bond{A: fi, B: ti, Order: chem.Single})
			}
		case "END", "ENDMDL":
			// Single-model workload: stop at the first model boundary.
			if len(m.Atoms) > 0 {
				return m, m.Validate()
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("formats: pdb %q: %w", name, err)
	}
	if len(m.Atoms) == 0 {
		return nil, fmt.Errorf("formats: pdb %q has no ATOM/HETATM records", name)
	}
	return m, m.Validate()
}

// parsePDBAtom decodes one fixed-column ATOM/HETATM record.
//
// Columns (1-based): 7-11 serial, 13-16 name, 18-20 resName, 22 chain,
// 23-26 resSeq, 31-38 x, 39-46 y, 47-54 z, 77-78 element.
func parsePDBAtom(line string) (chem.Atom, error) {
	var a chem.Atom
	// Pad so column slicing is safe.
	if len(line) < 80 {
		line = line + strings.Repeat(" ", 80-len(line))
	}
	serial, err := strconv.Atoi(strings.TrimSpace(line[6:11]))
	if err != nil {
		return a, fmt.Errorf("bad serial %q", strings.TrimSpace(line[6:11]))
	}
	a.Serial = serial
	a.Name = strings.TrimSpace(line[12:16])
	a.Residue = strings.TrimSpace(line[17:20])
	a.Chain = strings.TrimSpace(line[21:22])
	if rs := strings.TrimSpace(line[22:26]); rs != "" {
		// Non-numeric residue sequence (e.g. hybrid-36 in huge
		// structures) is tolerated and leaves ResSeq at zero.
		if v, err := strconv.Atoi(rs); err == nil {
			a.ResSeq = v
		}
	}
	coords := [3]float64{}
	for i, span := range [][2]int{{30, 38}, {38, 46}, {46, 54}} {
		v, err := strconv.ParseFloat(strings.TrimSpace(line[span[0]:span[1]]), 64)
		if err != nil {
			return a, fmt.Errorf("bad coordinate %d %q", i, strings.TrimSpace(line[span[0]:span[1]]))
		}
		coords[i] = v
	}
	a.Pos = chem.V(coords[0], coords[1], coords[2])
	elem := strings.TrimSpace(line[76:78])
	if elem == "" {
		// Derive from the raw name field, PDB-style: two-letter
		// elements are written flush left in column 13, one-letter
		// elements leave column 13 blank (" CA " is an alpha carbon,
		// "CA  " is calcium).
		elem = elementFromNameField(line[12:16])
	}
	a.Element = chem.Element(elem).Normalize()
	return a, nil
}

func elementFromNameField(field string) string {
	// Flush-left name (no leading space): candidate two-letter element.
	if len(field) >= 2 && field[0] != ' ' {
		two := chem.Element(field[:2]).Normalize()
		switch two {
		case chem.Chlorine, chem.Bromine, chem.Zinc, chem.Iron,
			chem.Magnesium, chem.Calcium, chem.Mercury:
			return string(two)
		}
	}
	name := strings.TrimLeft(strings.TrimSpace(field), "0123456789")
	if name == "" {
		return "C"
	}
	return strings.ToUpper(name[:1])
}

// WritePDB emits the molecule as ATOM/HETATM records (plus CONECT for
// any bonds) terminated by END.
func WritePDB(w io.Writer, m *chem.Molecule) error {
	bw := textio.NewWriter(w)
	fmt.Fprintf(bw, "HEADER    %s\n", m.Name)
	for i, a := range m.Atoms {
		serial := a.Serial
		if serial == 0 {
			serial = i + 1
		}
		res := a.Residue
		if res == "" {
			res = "UNK"
		}
		b := appendAtomRecord(bw.AvailableBuffer(), serial, a, res)
		b = append(b, "          "...)
		b = textio.AppendRight(b, strings.ToUpper(string(a.Element)), 2)
		bw.Write(append(b, '\n'))
	}
	for _, b := range m.Bonds {
		fmt.Fprintf(bw, "CONECT%5d%5d\n", serialOf(m, b.A), serialOf(m, b.B))
	}
	fmt.Fprintln(bw, "END")
	return bw.Flush()
}

// appendAtomRecord appends columns 1–66 of an ATOM/HETATM record, the
// part PDB and PDBQT share — fmt's
// "%s%5d %-4s %-3s %1s%4d    %8.3f%8.3f%8.3f%6.2f%6.2f" of the record
// name, serial, aligned atom name, residue, chain (default "A"),
// sequence number, coordinates, occupancy 1.00 and temperature factor
// 0.00.
func appendAtomRecord(b []byte, serial int, a chem.Atom, res string) []byte {
	if a.HetAtm {
		b = append(b, "HETATM"...)
	} else {
		b = append(b, "ATOM  "...)
	}
	b = textio.AppendInt(b, serial, 5)
	b = append(b, ' ')
	// The PDB alignment rule: names of 1-3 characters start in column
	// 14, one space into the 4-character field.
	if len(a.Name) >= 4 {
		b = textio.AppendLeft(b, a.Name[:4], 4)
	} else {
		b = textio.AppendLeft(append(b, ' '), a.Name, 3)
	}
	b = append(b, ' ')
	b = textio.AppendLeft(b, res, 3)
	b = append(b, ' ')
	chain := a.Chain
	if chain == "" {
		chain = "A"
	}
	b = textio.AppendRight(b, chain, 1)
	b = textio.AppendInt(b, a.ResSeq, 4)
	b = append(b, "    "...)
	b = textio.AppendFixed(b, a.Pos.X, 8, 3)
	b = textio.AppendFixed(b, a.Pos.Y, 8, 3)
	b = textio.AppendFixed(b, a.Pos.Z, 8, 3)
	return append(b, "  1.00  0.00"...)
}

func serialOf(m *chem.Molecule, idx int) int {
	if s := m.Atoms[idx].Serial; s != 0 {
		return s
	}
	return idx + 1
}
