package formats

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/chem"
)

// ParseDLG reads a docking log written by WriteDLG. The engine's
// extractor takes its provenance from the docking result, so no
// production path reads a DLG back; the round-trip tests and FuzzDLG
// do.
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
