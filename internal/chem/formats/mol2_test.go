package formats

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/chem"
)

// ParseMol2 reads a Tripos Sybyl Mol2 file, the intermediate format
// produced by SciDock's first activity (Babel conversion). No
// production path reads Mol2 back; the round-trip tests and FuzzMol2
// do.
func ParseMol2(r io.Reader, name string) (*chem.Molecule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	m := &chem.Molecule{Name: name}
	section := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimRight(sc.Text(), " \t\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.HasPrefix(line, "@<TRIPOS>") {
			section = strings.TrimPrefix(line, "@<TRIPOS>")
			continue
		}
		switch section {
		case "MOLECULE":
			if m.Name == "" {
				m.Name = strings.TrimSpace(line)
			}
			section = "MOLECULE-rest" // remaining header lines ignored
		case "ATOM":
			f := strings.Fields(line)
			if len(f) < 6 {
				return nil, fmt.Errorf("formats: mol2 %q line %d: short atom record", name, lineNo)
			}
			serial, err := strconv.Atoi(f[0])
			if err != nil {
				return nil, fmt.Errorf("formats: mol2 %q line %d: bad id: %w", name, lineNo, err)
			}
			x, err1 := strconv.ParseFloat(f[2], 64)
			y, err2 := strconv.ParseFloat(f[3], 64)
			z, err3 := strconv.ParseFloat(f[4], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, fmt.Errorf("formats: mol2 %q line %d: bad coordinates", name, lineNo)
			}
			// SYBYL type like "C.3", "O.co2", "N.ar": element before dot.
			elem := f[5]
			if i := strings.IndexByte(elem, '.'); i >= 0 {
				elem = elem[:i]
			}
			a := chem.Atom{
				Serial:  serial,
				Name:    f[1],
				Element: chem.Element(elem).Normalize(),
				Pos:     chem.V(x, y, z),
				HetAtm:  true,
			}
			if len(f) >= 9 {
				if q, err := strconv.ParseFloat(f[8], 64); err == nil {
					a.Charge = q
				}
			}
			if len(f) >= 8 {
				a.Residue = strings.TrimRight(f[7], "0123456789")
			}
			m.Atoms = append(m.Atoms, a)
		case "BOND":
			f := strings.Fields(line)
			if len(f) < 4 {
				return nil, fmt.Errorf("formats: mol2 %q line %d: short bond record", name, lineNo)
			}
			a, err1 := strconv.Atoi(f[1])
			b, err2 := strconv.Atoi(f[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("formats: mol2 %q line %d: bad bond endpoints", name, lineNo)
			}
			if a < 1 || a > len(m.Atoms) || b < 1 || b > len(m.Atoms) {
				return nil, fmt.Errorf("formats: mol2 %q line %d: bond endpoint out of range", name, lineNo)
			}
			m.Bonds = append(m.Bonds, chem.Bond{A: a - 1, B: b - 1, Order: mol2BondOrder(f[3])})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("formats: mol2 %q: %w", name, err)
	}
	if len(m.Atoms) == 0 {
		return nil, fmt.Errorf("formats: mol2 %q has no atoms", name)
	}
	return m, m.Validate()
}

func mol2BondOrder(s string) chem.BondOrder {
	switch s {
	case "1":
		return chem.Single
	case "2":
		return chem.Double
	case "3":
		return chem.Triple
	case "ar":
		return chem.Aromatic
	case "am":
		return chem.Single // amide written as single; prep freezes it
	default:
		return chem.Single
	}
}
