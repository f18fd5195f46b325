package grid

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/chem"
	"repro/internal/textio"
)

// WriteMap emits one map in AutoGrid's .map text format: six header
// lines followed by one energy value per line in x-fastest order.
// These files are the bulk of the "600 GB per execution" the paper
// reports; the workflow stores them on the shared file system.
func (m *Maps) WriteMap(w io.Writer, which string) error {
	sl, err := m.values(which)
	if err != nil {
		return err
	}
	bw := textio.NewWriter(w)
	fmt.Fprintf(bw, "GRID_PARAMETER_FILE %s.gpf\n", m.Receptor)
	fmt.Fprintf(bw, "GRID_DATA_FILE %s.maps.fld\n", m.Receptor)
	fmt.Fprintf(bw, "MACROMOLECULE %s.pdbqt\n", m.Receptor)
	fmt.Fprintf(bw, "SPACING %.3f\n", m.Spec.Spacing)
	fmt.Fprintf(bw, "NELEMENTS %d %d %d\n", m.Spec.NPts[0]-1, m.Spec.NPts[1]-1, m.Spec.NPts[2]-1)
	fmt.Fprintf(bw, "CENTER %.3f %.3f %.3f\n", m.Spec.Center.X, m.Spec.Center.Y, m.Spec.Center.Z)
	for _, v := range sl {
		bw.Write(append(textio.AppendFixed(bw.AvailableBuffer(), v, 0, 3), '\n'))
	}
	return bw.Flush()
}

// values resolves one map by name to its lattice.
func (m *Maps) values(which string) ([]float64, error) {
	switch which {
	case "e":
		return m.elec, nil
	case "d":
		return m.desolv, nil
	}
	sl, ok := m.affinity[chem.AtomType(which)]
	if !ok {
		return nil, fmt.Errorf("grid: receptor %s has no map %q", m.Receptor, which)
	}
	return sl, nil
}

// ParseMap reads a .map file written by WriteMap into a fresh Maps
// value holding just that one map under the given key.
func ParseMap(r io.Reader, which string, name string) (*Maps, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	m := &Maps{affinity: make(map[chem.AtomType][]float64)}
	var values []float64
	header := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "GRID_PARAMETER_FILE", "GRID_DATA_FILE":
			header++
		case "MACROMOLECULE":
			header++
			if len(f) >= 2 {
				m.Receptor = strings.TrimSuffix(f[1], ".pdbqt")
			}
		case "SPACING":
			header++
			if len(f) != 2 {
				return nil, fmt.Errorf("grid: map %q: bad SPACING", name)
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("grid: map %q: %w", name, err)
			}
			m.Spec.Spacing = v
		case "NELEMENTS":
			header++
			if len(f) != 4 {
				return nil, fmt.Errorf("grid: map %q: bad NELEMENTS", name)
			}
			for i := 0; i < 3; i++ {
				v, err := strconv.Atoi(f[i+1])
				if err != nil {
					return nil, fmt.Errorf("grid: map %q: %w", name, err)
				}
				m.Spec.NPts[i] = v + 1
			}
		case "CENTER":
			header++
			if len(f) != 4 {
				return nil, fmt.Errorf("grid: map %q: bad CENTER", name)
			}
			var c [3]float64
			for i := 0; i < 3; i++ {
				v, err := strconv.ParseFloat(f[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("grid: map %q: %w", name, err)
				}
				c[i] = v
			}
			m.Spec.Center = chem.V(c[0], c[1], c[2])
		default:
			v, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return nil, fmt.Errorf("grid: map %q: bad value %q", name, f[0])
			}
			values = append(values, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("grid: map %q: %w", name, err)
	}
	if want := m.Spec.NumPoints(); len(values) != want {
		return nil, fmt.Errorf("grid: map %q: %d values, lattice wants %d", name, len(values), want)
	}
	switch which {
	case "e":
		m.elec = values
		m.desolv = make([]float64, len(values))
	case "d":
		m.desolv = values
		m.elec = make([]float64, len(values))
	default:
		m.affinity[chem.AtomType(which)] = values
		m.elec = make([]float64, len(values))
		m.desolv = make([]float64, len(values))
	}
	return m, nil
}

// WriteFLD emits the grid field summary file (.maps.fld) that the DPF
// references; it indexes every map of this receptor.
func (m *Maps) WriteFLD(w io.Writer) error {
	bw := textio.NewWriter(w)
	fmt.Fprintf(bw, "# AVS field file generated by scidock-go autogrid\n")
	fmt.Fprintf(bw, "ndim=3\n")
	fmt.Fprintf(bw, "dim1=%d\ndim2=%d\ndim3=%d\n", m.Spec.NPts[0], m.Spec.NPts[1], m.Spec.NPts[2])
	fmt.Fprintf(bw, "#SPACING %.3f\n", m.Spec.Spacing)
	fmt.Fprintf(bw, "#CENTER %.3f %.3f %.3f\n", m.Spec.Center.X, m.Spec.Center.Y, m.Spec.Center.Z)
	fmt.Fprintf(bw, "#MACROMOLECULE %s.pdbqt\n", m.Receptor)
	i := 0
	for _, t := range m.Types() {
		fmt.Fprintf(bw, "variable %d file=%s.%s.map filetype=ascii\n", i+1, m.Receptor, t)
		i++
	}
	fmt.Fprintf(bw, "variable %d file=%s.e.map filetype=ascii\n", i+1, m.Receptor)
	fmt.Fprintf(bw, "variable %d file=%s.d.map filetype=ascii\n", i+2, m.Receptor)
	return bw.Flush()
}
