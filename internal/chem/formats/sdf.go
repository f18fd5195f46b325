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

// ParseSDF reads the first structure of an SD file (MDL V2000
// connection table), the input format of SciDock's ligands.
func ParseSDF(r io.Reader, name string) (*chem.Molecule, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("formats: sdf %q: %w", name, err)
	}
	if len(lines) < 4 {
		return nil, fmt.Errorf("formats: sdf %q: truncated header (%d lines)", name, len(lines))
	}
	title := strings.TrimSpace(lines[0])
	counts := lines[3]
	if len(counts) < 6 {
		return nil, fmt.Errorf("formats: sdf %q: bad counts line %q", name, counts)
	}
	nAtoms, err := strconv.Atoi(strings.TrimSpace(counts[0:3]))
	if err != nil {
		return nil, fmt.Errorf("formats: sdf %q: bad atom count: %w", name, err)
	}
	nBonds, err := strconv.Atoi(strings.TrimSpace(counts[3:6]))
	if err != nil {
		return nil, fmt.Errorf("formats: sdf %q: bad bond count: %w", name, err)
	}
	if nAtoms < 0 || nBonds < 0 {
		return nil, fmt.Errorf("formats: sdf %q: negative count in %q", name, counts)
	}
	if len(lines) < 4+nAtoms+nBonds {
		return nil, fmt.Errorf("formats: sdf %q: expected %d atom + %d bond lines, file has %d lines",
			name, nAtoms, nBonds, len(lines))
	}
	m := &chem.Molecule{Name: name}
	if m.Name == "" {
		m.Name = title
	}
	for i := 0; i < nAtoms; i++ {
		ln := lines[4+i]
		if len(ln) < 34 {
			return nil, fmt.Errorf("formats: sdf %q: atom line %d too short", name, i+1)
		}
		x, err1 := strconv.ParseFloat(strings.TrimSpace(ln[0:10]), 64)
		y, err2 := strconv.ParseFloat(strings.TrimSpace(ln[10:20]), 64)
		z, err3 := strconv.ParseFloat(strings.TrimSpace(ln[20:30]), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("formats: sdf %q: bad coordinates on atom line %d", name, i+1)
		}
		sym := strings.TrimSpace(ln[31:34])
		m.Atoms = append(m.Atoms, chem.Atom{
			Serial:  i + 1,
			Name:    fmt.Sprintf("%s%d", sym, i+1),
			Element: chem.Element(sym).Normalize(),
			Pos:     chem.V(x, y, z),
			HetAtm:  true,
		})
	}
	for i := 0; i < nBonds; i++ {
		ln := lines[4+nAtoms+i]
		if len(ln) < 9 {
			return nil, fmt.Errorf("formats: sdf %q: bond line %d too short", name, i+1)
		}
		a, err1 := strconv.Atoi(strings.TrimSpace(ln[0:3]))
		b, err2 := strconv.Atoi(strings.TrimSpace(ln[3:6]))
		o, err3 := strconv.Atoi(strings.TrimSpace(ln[6:9]))
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("formats: sdf %q: bad bond line %d", name, i+1)
		}
		if a < 1 || a > nAtoms || b < 1 || b > nAtoms {
			return nil, fmt.Errorf("formats: sdf %q: bond line %d references atom out of range", name, i+1)
		}
		m.Bonds = append(m.Bonds, chem.Bond{A: a - 1, B: b - 1, Order: chem.BondOrder(o)})
	}
	return m, m.Validate()
}

// WriteSDF emits a V2000 SD file for the molecule, ending with $$$$.
func WriteSDF(w io.Writer, m *chem.Molecule) error {
	bw := textio.NewWriter(w)
	fmt.Fprintf(bw, "%s\n", m.Name)
	fmt.Fprintln(bw, "  SciDock-Go  3D")
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, "%3d%3d  0  0  0  0  0  0  0  0999 V2000\n", len(m.Atoms), len(m.Bonds))
	for _, a := range m.Atoms {
		b := textio.AppendFixed(bw.AvailableBuffer(), a.Pos.X, 10, 4)
		b = textio.AppendFixed(b, a.Pos.Y, 10, 4)
		b = textio.AppendFixed(b, a.Pos.Z, 10, 4)
		b = append(b, ' ')
		b = textio.AppendLeft(b, string(a.Element), 3)
		bw.Write(append(b, " 0  0  0  0  0  0  0  0  0  0  0  0\n"...))
	}
	for _, b := range m.Bonds {
		fmt.Fprintf(bw, "%3d%3d%3d  0  0  0  0\n", b.A+1, b.B+1, int(b.Order))
	}
	fmt.Fprintln(bw, "M  END")
	fmt.Fprintln(bw, "$$$$")
	return bw.Flush()
}
