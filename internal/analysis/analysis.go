// Package analysis implements the post-campaign screening analyses of
// §V.D: compound-space coverage (how many of the docked pairs were
// favourable, and the "complementary space" the paper argues a small
// screen would have missed), the AD4/Vina consensus comparison in the
// spirit of Chang et al. (2010), and per-receptor hit ranking for
// drug-target candidate selection.
//
// All analyses run as SQL over the campaign's provenance database, as
// the paper's scientists did.
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/prov"
)

// Coverage summarizes the favourable/unfavourable split of a docking
// campaign for one program.
type Coverage struct {
	Program       string
	Docked        int
	Favourable    int // FEB < 0
	Complementary int // docked pairs with no favourable interaction
	BestFEB       float64
	MeanFEBNeg    float64 // mean FEB over favourable pairs
}

// CoverageReport computes the per-program coverage of the campaign —
// the quantitative form of the paper's claim that widening the
// compound space is what surfaces new candidate interactions.
// internal/prov's seedSQL holds a copy of its SQL; keep the two in step,
// here and in ConsensusReport and TopReceptors.
func CoverageReport(db *prov.DB) ([]Coverage, error) {
	progs, err := db.Query("SELECT program, count(*) FROM ddocking GROUP BY program ORDER BY program")
	if err != nil {
		return nil, err
	}
	var out []Coverage
	for _, row := range progs.Rows {
		c := Coverage{Program: row[0].(string), Docked: int(row[1].(int64))}
		neg, err := db.Query(fmt.Sprintf(
			"SELECT count(*), min(feb), avg(feb) FROM ddocking WHERE program = '%s' AND feb < 0", c.Program))
		if err != nil {
			return nil, err
		}
		c.Favourable = int(neg.Rows[0][0].(int64))
		if v, ok := neg.Rows[0][1].(float64); ok {
			c.BestFEB = v
		}
		if v, ok := neg.Rows[0][2].(float64); ok {
			c.MeanFEBNeg = v
		}
		c.Complementary = c.Docked - c.Favourable
		out = append(out, c)
	}
	return out, nil
}

// FormatCoverage renders the report.
func FormatCoverage(cs []Coverage) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %8s %11s %14s %10s %12s\n",
		"program", "docked", "favourable", "complementary", "best FEB", "mean FEB(-)")
	for _, c := range cs {
		fmt.Fprintf(&sb, "%-10s %8d %11d %14d %10.1f %12.1f\n",
			c.Program, c.Docked, c.Favourable, c.Complementary, c.BestFEB, c.MeanFEBNeg)
	}
	return sb.String()
}

// Consensus compares the two programs' verdicts on the pairs both
// docked, echoing Chang et al.'s AD4-vs-Vina association study.
type Consensus struct {
	CommonPairs int
	BothFav     int // favourable under both programs
	OnlyAD4     int
	OnlyVina    int
	Neither     int
	Spearman    float64 // rank correlation of FEBs over common pairs
	Agreement   float64 // fraction of pairs with the same verdict
}

// ConsensusReport computes the cross-program agreement.
func ConsensusReport(db *prov.DB) (*Consensus, error) {
	res, err := db.Query(`SELECT a.receptor, a.ligand, a.feb, v.feb
FROM ddocking a, ddocking v
WHERE a.receptor = v.receptor AND a.ligand = v.ligand
AND a.program = 'autodock4' AND v.program = 'vina'`)
	if err != nil {
		return nil, err
	}
	c := &Consensus{CommonPairs: len(res.Rows)}
	if c.CommonPairs == 0 {
		return c, nil
	}
	var ad4, vina []float64
	for _, row := range res.Rows {
		fa := row[2].(float64)
		fv := row[3].(float64)
		ad4 = append(ad4, fa)
		vina = append(vina, fv)
		switch {
		case fa < 0 && fv < 0:
			c.BothFav++
		case fa < 0:
			c.OnlyAD4++
		case fv < 0:
			c.OnlyVina++
		default:
			c.Neither++
		}
	}
	c.Agreement = float64(c.BothFav+c.Neither) / float64(c.CommonPairs)
	c.Spearman = Spearman(ad4, vina)
	return c, nil
}

// FormatConsensus renders the report.
func FormatConsensus(c *Consensus) string {
	if c.CommonPairs == 0 {
		return "no pairs docked by both programs\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "common pairs:        %d\n", c.CommonPairs)
	fmt.Fprintf(&sb, "favourable in both:  %d\n", c.BothFav)
	fmt.Fprintf(&sb, "only AD4:            %d\n", c.OnlyAD4)
	fmt.Fprintf(&sb, "only Vina:           %d\n", c.OnlyVina)
	fmt.Fprintf(&sb, "neither:             %d\n", c.Neither)
	fmt.Fprintf(&sb, "verdict agreement:   %.1f%%\n", c.Agreement*100)
	fmt.Fprintf(&sb, "Spearman rho (FEB):  %.3f\n", c.Spearman)
	return sb.String()
}

// Spearman computes the Spearman rank-correlation coefficient between
// two equal-length samples (average ranks for ties). Returns 0 for
// degenerate inputs.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	rx := ranks(x)
	ry := ranks(y)
	// Pearson correlation of the ranks.
	n := float64(len(x))
	var mx, my float64
	for i := range rx {
		mx += rx[i]
		my += ry[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range rx {
		dx := rx[i] - mx
		dy := ry[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ranks assigns average ranks (1-based) with tie handling.
func ranks(x []float64) []float64 {
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	out := make([]float64, len(x))
	i := 0
	for i < len(idx) {
		j := i
		//lint:ignore floatcmp rank ties must use exact equality; an epsilon would merge distinct values into one rank
		for j+1 < len(idx) && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// ReceptorHit is a receptor ranked by how many ligands bound it
// favourably — the drug-target candidate list of §V.D.
type ReceptorHit struct {
	Receptor string
	Hits     int
	BestFEB  float64
}

// TopReceptors ranks receptors by favourable-interaction count (ties
// by best FEB), returning at most n.
func TopReceptors(db *prov.DB, n int) ([]ReceptorHit, error) {
	res, err := db.Query(`SELECT receptor, count(*), min(feb)
FROM ddocking WHERE feb < 0
GROUP BY receptor`)
	if err != nil {
		return nil, err
	}
	var out []ReceptorHit
	for _, row := range res.Rows {
		out = append(out, ReceptorHit{
			Receptor: row[0].(string),
			Hits:     int(row[1].(int64)),
			BestFEB:  row[2].(float64),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hits != out[j].Hits {
			return out[i].Hits > out[j].Hits
		}
		return out[i].BestFEB < out[j].BestFEB
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out, nil
}
