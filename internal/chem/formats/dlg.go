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

// ParseDLG reads a docking log written by WriteDLG. SciCumulus'
// extractor activity uses this to populate domain provenance.
func ParseDLG(r io.Reader, name string) (*DLG, error) {
	d := &DLG{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "DOCKED: PROGRAM "):
			d.Program = strings.TrimPrefix(line, "DOCKED: PROGRAM ")
		case strings.HasPrefix(line, "DOCKED: RECEPTOR "):
			d.Receptor = strings.TrimPrefix(line, "DOCKED: RECEPTOR ")
		case strings.HasPrefix(line, "DOCKED: LIGAND "):
			d.Ligand = strings.TrimPrefix(line, "DOCKED: LIGAND ")
		case strings.HasPrefix(line, "DOCKED: SEED "):
			s, err := strconv.ParseInt(strings.TrimPrefix(line, "DOCKED: SEED "), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("formats: dlg %q line %d: bad seed: %w", name, lineNo, err)
			}
			d.Seed = s
		case strings.HasPrefix(line, "DOCKED: ATOM") || strings.HasPrefix(line, "DOCKED: HETATM"):
			a, err := parsePDBQTAtom(strings.TrimPrefix(line, "DOCKED: "))
			if err != nil {
				return nil, fmt.Errorf("formats: dlg %q line %d: %w", name, lineNo, err)
			}
			if d.Docked == nil {
				d.Docked = &chem.Molecule{Name: d.Ligand}
			}
			d.Docked.Atoms = append(d.Docked.Atoms, a)
		case strings.HasPrefix(line, "RESULT "):
			f := strings.Fields(line)
			if len(f) != 5 {
				return nil, fmt.Errorf("formats: dlg %q line %d: malformed RESULT", name, lineNo)
			}
			run, err1 := strconv.Atoi(f[1])
			feb, err2 := strconv.ParseFloat(f[2], 64)
			rmsd, err3 := strconv.ParseFloat(f[3], 64)
			cn, err4 := strconv.Atoi(f[4])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, fmt.Errorf("formats: dlg %q line %d: malformed RESULT fields", name, lineNo)
			}
			d.Runs = append(d.Runs, DLGRun{Run: run, FEB: feb, RMSD: rmsd, ClusterN: cn})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("formats: dlg %q: %w", name, err)
	}
	if d.Program == "" {
		return nil, fmt.Errorf("formats: dlg %q: missing program banner", name)
	}
	return d, nil
}
