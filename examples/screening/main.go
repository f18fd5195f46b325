// Screening: a virtual-screening campaign in the paper's style — a
// receptor sweep for each of the four Table-3 ligands, adaptive
// program selection (small receptors → AutoDock 4, large → Vina),
// followed by the provenance-driven biological analysis of §V.D.
//
//	go run ./examples/screening
package main

import (
	"fmt"
	"log"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/stats"
)

func main() {
	// 30 receptors × the 4 CP-specific ligands of Table 3.
	ds := data.Dataset{
		Receptors: data.ReceptorCodes[:30],
		Ligands:   data.Table3Ligands,
	}
	fmt.Printf("screening %d receptor-ligand pairs (adaptive AD4/Vina split)...\n", ds.NumPairs())

	camp, err := core.Run(core.Config{
		Mode:    core.ModeAdaptive,
		Dataset: ds,
		Cores:   32,
		Effort:  core.CampaignEffort(),
		Seed:    7,
		HgGuard: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	for _, rep := range camp.Reports {
		fmt.Printf("workflow %d: TET %s, %d activations, %d failures recovered, %d aborted\n",
			rep.WorkflowID, stats.FormatDuration(rep.TET),
			rep.Activations, rep.Failures, rep.Aborted)
	}
	fmt.Printf("campaign TET %s, simulated EC2 bill $%.2f\n\n",
		stats.FormatDuration(camp.TET()), camp.Engine.Cluster.Cost())

	// Table-3-style per-ligand statistics.
	rows, err := core.Table3(camp.Engine.DB, ds.Ligands)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(core.FormatTable3(rows))

	// The scientist's follow-up queries (§V.D).
	fmt.Println("\nmost favourable interactions (drug-target candidates):")
	top, err := core.TopInteractions(camp.Engine.DB, 5)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range top {
		fmt.Println("  " + t)
	}

	fmt.Println("\nwhich receptors bound every ligand favourably?")
	// internal/prov's seedSQL holds a copy of this SQL.
	res, err := camp.Engine.DB.Query(`SELECT receptor, count(*), avg(feb)
FROM ddocking WHERE feb < 0
GROUP BY receptor
ORDER BY avg(feb) ASC
LIMIT 5`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Format())

	// Compound-space coverage: the favourable vs complementary split
	// behind the paper's "cover diversity space of compounds"
	// argument.
	cov, err := analysis.CoverageReport(camp.Engine.DB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ncompound-space coverage:")
	fmt.Print(analysis.FormatCoverage(cov))

	hits, err := analysis.TopReceptors(camp.Engine.DB, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndrug-target candidates (receptors by favourable-ligand count):")
	for i, h := range hits {
		fmt.Printf("  %d. %s — %d favourable ligands, best FEB %.1f kcal/mol\n",
			i+1, h.Receptor, h.Hits, h.BestFEB)
	}
}
