package grid

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/chem"
)

// ParseMap reads a .map file written by WriteMap into a fresh Maps
// value holding just that one map under the given key, each value
// rounded to the lattice's float32. No production path reads .map
// files back; the round-trip tests and FuzzParseMap do.
func ParseMap(r io.Reader, which string, name string) (*Maps, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	m := &Maps{affinity: make(map[chem.AtomType][]float32)}
	var values []float32
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		switch f[0] {
		case "GRID_PARAMETER_FILE", "GRID_DATA_FILE":
		case "MACROMOLECULE":
			if len(f) >= 2 {
				m.Receptor = strings.TrimSuffix(f[1], ".pdbqt")
			}
		case "SPACING":
			if len(f) != 2 {
				return nil, fmt.Errorf("grid: map %q: bad SPACING", name)
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("grid: map %q: %w", name, err)
			}
			m.Spec.Spacing = v
		case "NELEMENTS":
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
			v, err := strconv.ParseFloat(f[0], 32)
			if err != nil {
				return nil, fmt.Errorf("grid: map %q: bad value %q", name, f[0])
			}
			values = append(values, float32(v))
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
		m.desolv = make([]float32, len(values))
	case "d":
		m.desolv = values
		m.elec = make([]float32, len(values))
	default:
		m.affinity[chem.AtomType(which)] = values
		m.elec = make([]float32, len(values))
		m.desolv = make([]float32, len(values))
	}
	return m, nil
}
