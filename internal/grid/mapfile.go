package grid

import (
	"fmt"
	"io"
	"slices"

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
		bw.Write(append(textio.AppendFixed(bw.AvailableBuffer(), float64(v), 0, 3), '\n'))
	}
	return bw.Flush()
}

// values resolves one map by name to its lattice.
func (m *Maps) values(which string) ([]float32, error) {
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

// WriteFLD emits the grid field summary file (.maps.fld) that the DPF
// references; it indexes every map of this receptor.
func (m *Maps) WriteFLD(w io.Writer) error {
	return WriteFLDFor(w, m.Spec, m.Receptor, m.Types())
}

// WriteFLDFor emits the .maps.fld of the maps Generate would compute
// for receptor over spec and types: it reads no lattice, so AutoGrid
// can stage it before any map exists. The types are indexed sorted,
// once each, as Maps.Types lists them.
func WriteFLDFor(w io.Writer, spec Spec, receptor string, types []chem.AtomType) error {
	types = slices.Clone(types)
	slices.Sort(types)
	types = slices.Compact(types)
	bw := textio.NewWriter(w)
	fmt.Fprintf(bw, "# AVS field file generated by scidock-go autogrid\n")
	fmt.Fprintf(bw, "ndim=3\n")
	fmt.Fprintf(bw, "dim1=%d\ndim2=%d\ndim3=%d\n", spec.NPts[0], spec.NPts[1], spec.NPts[2])
	fmt.Fprintf(bw, "#SPACING %.3f\n", spec.Spacing)
	fmt.Fprintf(bw, "#CENTER %.3f %.3f %.3f\n", spec.Center.X, spec.Center.Y, spec.Center.Z)
	fmt.Fprintf(bw, "#MACROMOLECULE %s.pdbqt\n", receptor)
	for i, t := range types {
		fmt.Fprintf(bw, "variable %d file=%s.%s.map filetype=ascii\n", i+1, receptor, t)
	}
	fmt.Fprintf(bw, "variable %d file=%s.e.map filetype=ascii\n", len(types)+1, receptor)
	fmt.Fprintf(bw, "variable %d file=%s.d.map filetype=ascii\n", len(types)+2, receptor)
	return bw.Flush()
}
