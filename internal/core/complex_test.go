package core

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chem"
	"repro/internal/chem/formats"
	"repro/internal/data"
	"repro/internal/prep"
)

func TestExportComplex(t *testing.T) {
	cfg := Config{Effort: SmokeEffort(), Seed: 2}
	var buf bytes.Buffer
	res, err := ExportComplex(&buf, cfg, prep.ProgramAD4, "2HHN", "0E6")
	if err != nil {
		t.Fatal(err)
	}
	if res.Receptor != "2HHN" || res.Ligand != "0E6" || res.Atoms == 0 {
		t.Errorf("result = %+v", res)
	}
	// The PDB parses back and contains both receptor and ligand atoms.
	mol, err := formats.ParsePDB(bytes.NewReader(buf.Bytes()), "complex")
	if err != nil {
		t.Fatal(err)
	}
	if mol.NumAtoms() != res.Atoms {
		t.Errorf("atoms = %d, want %d", mol.NumAtoms(), res.Atoms)
	}
	ligAtoms := 0
	for _, a := range mol.Atoms {
		if a.Chain == "L" {
			ligAtoms++
			if !a.HetAtm {
				t.Error("ligand atom not HETATM")
			}
		}
	}
	if ligAtoms == 0 {
		t.Fatal("no ligand atoms in complex")
	}
	// The docked ligand sits inside the receptor's bounding volume
	// (the pose is in the receptor frame, not the input frame).
	text := buf.String()
	if !strings.Contains(text, "HETATM") || !strings.Contains(text, "2HHN-0E6") {
		t.Errorf("pdb text missing structure:\n%s", text[:200])
	}
}

func TestExportComplexVina(t *testing.T) {
	cfg := Config{Effort: SmokeEffort(), Seed: 2}
	var buf bytes.Buffer
	res, err := ExportComplex(&buf, cfg, prep.ProgramVina, "1S4V", "0D6")
	if err != nil {
		t.Fatal(err)
	}
	if res.Program != prep.ProgramVina {
		t.Errorf("program = %v", res.Program)
	}
}

func TestExportComplexErrors(t *testing.T) {
	var buf bytes.Buffer
	bad := Config{Effort: Effort{}}
	if _, err := ExportComplex(&buf, bad, prep.ProgramAD4, "2HHN", "0E6"); err == nil {
		t.Error("invalid effort accepted")
	}
}

func TestRefineBestNeverWorse(t *testing.T) {
	cfg := Config{Effort: SmokeEffort(), Seed: 4}
	for _, prog := range []prep.Program{prep.ProgramAD4, prep.ProgramVina} {
		before, after, err := RefineBest(cfg, prog, "1HUC", "0D6", 150)
		if err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
		// Refinement optimizes the raw objective; the calibrated FEB
		// must not regress beyond rounding noise.
		if after > before+0.25 {
			t.Errorf("%s: refinement worsened FEB %v -> %v", prog, before, after)
		}
	}
}

func TestWriteMapsOption(t *testing.T) {
	ds := data.Dataset{Receptors: []string{"1AIM"}, Ligands: []string{"042"}}
	cfg := Config{
		Mode: ModeAD4, Dataset: ds, Cores: 2,
		Effort: SmokeEffort(), HgGuard: true, DisableFailures: true,
		WriteMaps: true,
	}
	camp, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files, err := camp.Engine.FS.List("/root/exp_SciDock")
	if err != nil {
		t.Fatal(err)
	}
	maps := 0
	for _, f := range files {
		if strings.HasSuffix(f, ".map") {
			maps++
		}
	}
	// At least e.map, d.map and one affinity map.
	if maps < 3 {
		t.Errorf("map files = %d, want ≥ 3 (files: %v)", maps, files)
	}
	// The e.map is a well-formed AutoGrid map.
	for _, f := range files {
		if strings.HasSuffix(f, ".e.map") {
			content, _, err := camp.Engine.FS.Read(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkMapFile(content); err != nil {
				t.Errorf("map %s does not parse: %v", f, err)
			}
			break
		}
	}
}

// checkMapFile checks the shape of a .map file: the six header lines,
// then one number per lattice node of the NELEMENTS header.
func checkMapFile(content []byte) error {
	lines := strings.Split(strings.TrimSuffix(string(content), "\n"), "\n")
	if len(lines) < 6 {
		return fmt.Errorf("%d lines, want a six-line header", len(lines))
	}
	var nx, ny, nz int
	if _, err := fmt.Sscanf(lines[4], "NELEMENTS %d %d %d", &nx, &ny, &nz); err != nil {
		return fmt.Errorf("header line %q: %w", lines[4], err)
	}
	values := lines[6:]
	if want := (nx + 1) * (ny + 1) * (nz + 1); len(values) != want {
		return fmt.Errorf("%d values, the lattice has %d nodes", len(values), want)
	}
	for _, v := range values {
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			return err
		}
	}
	return nil
}

func TestVinaOutPDBQTWritten(t *testing.T) {
	ds := data.Dataset{Receptors: []string{"1S4V"}, Ligands: []string{"0E6"}}
	cfg := Config{
		Mode: ModeVina, Dataset: ds, Cores: 2,
		Effort: SmokeEffort(), HgGuard: true, DisableFailures: true,
	}
	camp, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files, err := camp.Engine.FS.List("/root/exp_SciDock")
	if err != nil {
		t.Fatal(err)
	}
	var outFile string
	for _, f := range files {
		if strings.HasSuffix(f, "_out.pdbqt") {
			outFile = f
			break
		}
	}
	if outFile == "" {
		t.Fatalf("no *_out.pdbqt written (files: %v)", files)
	}
	content, _, err := camp.Engine.FS.Read(outFile)
	if err != nil {
		t.Fatal(err)
	}
	mol, poses, err := formats.ParsePDBQTModels(bytes.NewReader(content), "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(poses) < 1 || mol.NumAtoms() == 0 {
		t.Errorf("models = %d, atoms = %d", len(poses), mol.NumAtoms())
	}
	// Distinct modes differ spatially.
	if len(poses) >= 2 {
		same := true
		for i := range poses[0] {
			if poses[0][i].Dist(poses[1][i]) > 1e-6 {
				same = false
				break
			}
		}
		if same {
			t.Error("mode 1 and 2 identical")
		}
	}
}

func TestExportComplexLigandIsDocked(t *testing.T) {
	cfg := Config{Effort: SmokeEffort(), Seed: 6}
	var buf bytes.Buffer
	if _, err := ExportComplex(&buf, cfg, prep.ProgramAD4, "1HUC", "074"); err != nil {
		t.Fatal(err)
	}
	mol, err := formats.ParsePDB(bytes.NewReader(buf.Bytes()), "cx")
	if err != nil {
		t.Fatal(err)
	}
	var recPos, ligPos []chem.Vec3
	for _, a := range mol.Atoms {
		if a.Chain == "L" {
			ligPos = append(ligPos, a.Pos)
		} else {
			recPos = append(recPos, a.Pos)
		}
	}
	recC := chem.Centroid(recPos)
	ligC := chem.Centroid(ligPos)
	// The docked ligand sits near the receptor pocket, not at the
	// ligand's deposited frame ~50 Å away.
	if d := recC.Dist(ligC); d > 25 {
		t.Errorf("ligand centroid %.1f Å from receptor centre — not docked", d)
	}
}
