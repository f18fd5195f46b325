// Faulttolerance: reproduces the §V.C steering story. A campaign over
// a slice of Table 2 that includes Hg-bearing receptors and
// "problematic" ligands is run twice:
//
//  1. unsteered — Hg receptors and problematic ligands enter the
//     looping state, burn the abort timeout and are dropped;
//
//  2. steered — the provenance queries identify the culprits, the Hg
//     guard routine is enabled and the ligands re-parameterized
//     (blacklisted), so the re-run is clean and faster.
//
//     go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/stats"
)

func main() {
	// Find a slice that actually contains the §V.C hazards.
	var receptors []string
	hg := 0
	for _, code := range data.ReceptorCodes {
		if len(receptors) >= 25 {
			break
		}
		if data.ReceptorMeta(code).ContainsHg {
			hg++
		}
		receptors = append(receptors, code)
	}
	if hg == 0 { // make sure at least one Hg receptor is present
		for _, code := range data.ReceptorCodes {
			if data.ReceptorMeta(code).ContainsHg {
				receptors[0] = code
				break
			}
		}
	}
	var ligands []string
	for _, code := range data.LigandCodes {
		if data.LigandMeta(code).Problematic {
			ligands = append(ligands, code)
		}
		if len(ligands) >= 2 {
			break
		}
	}
	ligands = append(ligands, "042", "0E6")
	ds := data.Dataset{Receptors: receptors, Ligands: ligands}

	fmt.Printf("workload: %d pairs (with Hg receptors and problematic ligands)\n\n", ds.NumPairs())

	// Run 1: no steering.
	unsteered, err := core.Run(core.Config{
		Mode: core.ModeAD4, Dataset: ds, Cores: 16,
		Effort: core.SmokeEffort(), Seed: 33, HgGuard: false,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep := unsteered.Reports[0]
	fmt.Printf("unsteered run: TET %s, %d activations, %d transient failures recovered, %d aborted (looping)\n",
		stats.FormatDuration(rep.TET), rep.Activations, rep.Failures, rep.Aborted)

	// The scientist queries provenance to find what looped — exactly
	// the investigation the paper describes. internal/prov's seedSQL
	// holds a copy of this SQL and the next; keep them in step.
	res, err := unsteered.Engine.DB.Query(`SELECT a.tag, count(*)
FROM hactivity a, hactivation t
WHERE a.actid = t.actid AND t.status = 'ABORTED'
GROUP BY a.tag`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\naborted activations by activity (provenance query):")
	fmt.Print(res.Format())

	cmds, err := unsteered.Engine.DB.Query(
		"SELECT command FROM hactivation WHERE status = 'ABORTED' LIMIT 3")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sample aborted commands:")
	for _, row := range cmds.Rows {
		fmt.Println("  " + row[0].(string))
	}

	// Run 2: steering applied — Hg guard on, problematic ligands
	// blacklisted (re-parameterized).
	blacklist := map[string]bool{}
	for _, code := range ligands {
		if data.LigandMeta(code).Problematic {
			blacklist[code] = true
		}
	}
	steered, err := core.Run(core.Config{
		Mode: core.ModeAD4, Dataset: ds, Cores: 16,
		Effort: core.SmokeEffort(), Seed: 33,
		HgGuard: true, LigandBlacklist: blacklist,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep2 := steered.Reports[0]
	fmt.Printf("\nsteered run:   TET %s, %d activations, %d transient failures recovered, %d aborted\n",
		stats.FormatDuration(rep2.TET), rep2.Activations, rep2.Failures, rep2.Aborted)
	fmt.Printf("\nsteering saved %s of virtual execution time.\n",
		stats.FormatDuration(rep.TET-rep2.TET))
}
