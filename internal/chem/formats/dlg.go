package formats

import (
	"fmt"
	"io"

	"repro/internal/chem"
	"repro/internal/textio"
)

// DLGRun is one docking run recorded in a DLG file: its rank, free
// energy of binding and RMSD from the reference pose.
type DLGRun struct {
	Run      int
	FEB      float64 // kcal/mol
	RMSD     float64 // Å
	ClusterN int     // conformations in this cluster
}

// DLG is the parsed content of an AutoDock docking log: the program
// banner, per-run results and the best pose block.
type DLG struct {
	Program  string // "AutoDock 4.2.5.1" or "AutoDock Vina 1.1.2"
	Receptor string
	Ligand   string
	Runs     []DLGRun
	Seed     int64
	// Docked holds the best run's ligand conformation in the receptor
	// frame, written as "DOCKED: ATOM" records (the block molecular
	// viewers read to render Figure-12-style complexes). Optional.
	Docked *chem.Molecule
}

// Best returns the lowest-FEB run, or false when the log holds no runs
// (a failed docking).
func (d *DLG) Best() (DLGRun, bool) {
	if len(d.Runs) == 0 {
		return DLGRun{}, false
	}
	best := d.Runs[0]
	for _, r := range d.Runs[1:] {
		if r.FEB < best.FEB {
			best = r
		}
	}
	return best, true
}

// WriteDLG emits a docking log in the AutoDock-style layout consumed
// by SciCumulus' extractor components (and by ParseDLG).
func WriteDLG(w io.Writer, d *DLG) error {
	bw := textio.NewWriter(w)
	fmt.Fprintf(bw, "DOCKED: PROGRAM %s\n", d.Program)
	fmt.Fprintf(bw, "DOCKED: RECEPTOR %s\n", d.Receptor)
	fmt.Fprintf(bw, "DOCKED: LIGAND %s\n", d.Ligand)
	fmt.Fprintf(bw, "DOCKED: SEED %d\n", d.Seed)
	fmt.Fprintln(bw, "________________________________________________________________")
	fmt.Fprintln(bw, "     CLUSTERING HISTOGRAM")
	fmt.Fprintln(bw, "Run | FEB (kcal/mol) | RMSD (A) | Cluster Size")
	for _, r := range d.Runs {
		b := append(bw.AvailableBuffer(), "RESULT "...)
		b = textio.AppendInt(b, r.Run, 4)
		b = append(b, ' ')
		b = textio.AppendFixed(b, r.FEB, 12, 4)
		b = append(b, ' ')
		b = textio.AppendFixed(b, r.RMSD, 10, 4)
		b = append(b, ' ')
		b = textio.AppendInt(b, r.ClusterN, 6)
		bw.Write(append(b, '\n'))
	}
	if best, ok := d.Best(); ok {
		b := append(bw.AvailableBuffer(), "BEST: run="...)
		b = textio.AppendInt(b, best.Run, 0)
		b = append(b, " feb="...)
		b = textio.AppendFixed(b, best.FEB, 0, 4)
		b = append(b, " rmsd="...)
		b = textio.AppendFixed(b, best.RMSD, 0, 4)
		bw.Write(append(b, '\n'))
	}
	if d.Docked != nil {
		fmt.Fprintln(bw, "DOCKED: MODEL")
		for i, a := range d.Docked.Atoms {
			bw.WriteString("DOCKED: ")
			writePDBQTAtom(bw, i+1, a)
		}
		fmt.Fprintln(bw, "DOCKED: ENDMDL")
	}
	fmt.Fprintln(bw, "END OF DOCKING LOG")
	return bw.Flush()
}
