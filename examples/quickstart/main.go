// Quickstart: dock a single receptor-ligand pair — the 2HHN-0E6
// complex the paper's Figure 12 visualizes — with both docking
// engines, and print the resulting binding statistics and DLG log.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/prep"
	"repro/internal/stats"
)

func main() {
	// The paper's headline complex: Cathepsin S (2HHN) with the
	// arylaminoethyl amide ligand 0E6.
	ds := data.Dataset{Receptors: []string{"2HHN"}, Ligands: []string{"0E6"}}

	for _, mode := range []core.Mode{core.ModeAD4, core.ModeVina} {
		camp, err := core.Run(core.Config{
			Mode:    mode,
			Dataset: ds,
			Cores:   4,
			Effort:  core.QuickEffort(),
			Seed:    2014,
			HgGuard: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		rep := camp.Reports[0]
		fmt.Printf("=== SciDock with %s ===\n", strings.ToUpper(mode.String()))
		fmt.Printf("virtual TET: %s over %d activations (%d transient failures recovered)\n",
			stats.FormatDuration(rep.TET), rep.Activations, rep.Failures)

		// Mine the docking result from provenance, as §V.D does.
		res, err := camp.Engine.DB.Query(
			"SELECT receptor, ligand, feb, rmsd, nruns FROM ddocking")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(res.Format())

		// The DLG file is on the shared file system; show its head.
		files, err := camp.Engine.FS.List("/root/exp_SciDock")
		if err != nil {
			log.Fatal(err)
		}
		for _, f := range files {
			if !strings.HasSuffix(f, ".dlg") {
				continue
			}
			content, _, err := camp.Engine.FS.Read(f)
			if err != nil {
				log.Fatal(err)
			}
			lines := strings.SplitN(string(content), "\n", 12)
			fmt.Printf("\n%s:\n%s\n...\n\n", f, strings.Join(lines[:min(11, len(lines))], "\n"))
		}
	}

	// Figure 12: export the receptor with the best docked pose as one
	// PDB for molecular viewers. The export docks the pair once more,
	// outside the engine, which is also where the search's own work
	// counters can be read: no DLG or provenance row carries them.
	for _, exp := range []struct {
		program prep.Program
		file    string
	}{
		{prep.ProgramAD4, "2HHN_0E6_complex.pdb"},
		{prep.ProgramVina, "2HHN_0E6_complex_vina.pdb"},
	} {
		res, err := exportComplex(exp.program, exp.file)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d atoms, best FEB %.2f kcal/mol (Figure 12)\n", exp.file, res.Atoms, res.FEB)
		st := res.Stats
		fmt.Printf("  %s scored %d poses", exp.program, st.Evaluations)
		if probes := st.TranslationProbes + st.RotationProbes + st.TorsionProbes; probes > 0 {
			fmt.Printf(": %d local-search probes (%d translation, %d rotation, %d torsion),\n"+
				"  per-atom sums %d computed / %d reused from the incumbent, intra groups %d / %d",
				probes, st.TranslationProbes, st.RotationProbes, st.TorsionProbes,
				st.AtomSumsScored, st.AtomSumsReused, st.IntraGroupsScored, st.IntraGroupsReused)
		}
		fmt.Println()
	}
}

func exportComplex(program prep.Program, file string) (*core.ComplexResult, error) {
	out, err := os.Create(file)
	if err != nil {
		return nil, err
	}
	res, err := core.ExportComplex(out, core.Config{Effort: core.QuickEffort(), Seed: 2014}, program, "2HHN", "0E6")
	if err != nil {
		out.Close()
		return nil, err
	}
	return res, out.Close()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
