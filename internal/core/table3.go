package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/prov"
)

// Table3Row is one line of the paper's Table 3: per-ligand docking
// statistics over the 238-receptor sweep.
type Table3Row struct {
	Ligand  string
	Program string
	NegFEB  int     // total number of FEB(-) pairs
	AvgFEB  float64 // kcal/mol, over FEB(-) pairs
	AvgRMSD float64 // Å, over docked pairs
	NDocked int     // pairs that produced a docking result
}

// Table3 mines the campaign's provenance database for the Table 3
// statistics, exactly as the paper derives them from Query-1-style
// SQL over the ddocking extractor table. internal/prov's seedSQL holds a
// copy of its SQL; keep the two in step.
func Table3(db *prov.DB, ligands []string) ([]Table3Row, error) {
	var rows []Table3Row
	for _, lig := range ligands {
		for _, program := range []string{"autodock4", "vina"} {
			neg, err := db.Query(fmt.Sprintf(
				`SELECT count(*), avg(feb) FROM ddocking WHERE ligand = '%s' AND program = '%s' AND feb < 0`,
				lig, program))
			if err != nil {
				return nil, err
			}
			all, err := db.Query(fmt.Sprintf(
				`SELECT count(*), avg(rmsd) FROM ddocking WHERE ligand = '%s' AND program = '%s'`,
				lig, program))
			if err != nil {
				return nil, err
			}
			row := Table3Row{Ligand: lig, Program: program}
			row.NegFEB = int(neg.Rows[0][0].(int64))
			if v, ok := neg.Rows[0][1].(float64); ok {
				row.AvgFEB = round2(v)
			}
			row.NDocked = int(all.Rows[0][0].(int64))
			if v, ok := all.Rows[0][1].(float64); ok {
				row.AvgRMSD = round2(v)
			}
			if row.NDocked > 0 {
				rows = append(rows, row)
			}
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Ligand != rows[j].Ligand {
			return rows[i].Ligand < rows[j].Ligand
		}
		return rows[i].Program < rows[j].Program
	})
	return rows, nil
}

// FormatTable3 renders rows in the paper's layout.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %-10s %12s %18s %14s %8s\n",
		"Ligand", "Program", "FEB(-) count", "Avg FEB (kcal/mol)", "Avg RMSD (Å)", "docked")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s %-10s %12d %18.1f %14.1f %8d\n",
			r.Ligand, r.Program, r.NegFEB, r.AvgFEB, r.AvgRMSD, r.NDocked)
	}
	return sb.String()
}

// TopInteractions returns the n most favourable receptor-ligand
// interactions across the campaign (the paper's "best three
// interactions" analysis naming 2HHN-0E6, 1S4V-0D6, 1HUC-0D6).
// internal/prov's seedSQL holds a copy of its SQL; keep the two in step.
func TopInteractions(db *prov.DB, n int) ([]string, error) {
	res, err := db.Query(fmt.Sprintf(
		`SELECT receptor, ligand, feb FROM ddocking WHERE feb < 0 ORDER BY feb ASC LIMIT %d`, n))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, row := range res.Rows {
		out = append(out, fmt.Sprintf("%s-%s (%.1f kcal/mol)",
			row[0].(string), row[1].(string), row[2].(float64)))
	}
	return out, nil
}
