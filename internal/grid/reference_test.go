package grid

import (
	"math"

	"repro/internal/chem"
	"repro/internal/dock/tables"
)

// generateReference is the serial analytic AutoGrid path, the oracle
// TestGenerateMatchesReference pins Generate's radial tables against:
// identical semantics, but every pair interaction is evaluated from the
// closed-form potentials (sqrt, exp and all), over every receptor atom
// within the cutoff in atom order rather than over a cell list.
func generateReference(receptor *chem.Molecule, spec Spec, types []chem.AtomType) (*Maps, error) {
	m, probeTypes, err := newMaps(receptor, spec, types)
	if err != nil {
		return nil, err
	}
	probes := make([]chem.TypeParams, 0, len(probeTypes))
	probeSlices := make([][]float32, 0, len(probeTypes))
	for _, t := range probeTypes {
		probes = append(probes, t.Params())
		probeSlices = append(probeSlices, m.affinity[t])
	}

	origin := spec.Origin()
	idx := 0
	for k := 0; k < spec.NPts[2]; k++ {
		for j := 0; j < spec.NPts[1]; j++ {
			for i := 0; i < spec.NPts[0]; i++ {
				p := origin.Add(chem.V(
					float64(i)*spec.Spacing,
					float64(j)*spec.Spacing,
					float64(k)*spec.Spacing,
				))
				var elec, desolv float64
				affin := make([]float64, len(probes))
				for ai := range receptor.Atoms {
					a := &receptor.Atoms[ai]
					r := math.Sqrt(a.Pos.Dist2(p))
					if r > interactionCutoff {
						continue
					}
					if r < 0.5 {
						r = 0.5 // AutoGrid's rmin clamp
					}
					ap := receptorAtomType(a).Params()
					elec += a.Charge * tables.ElecScale(r)
					desolv += tables.DesolvCoeff(ap, a.Charge) * tables.DesolvWeight(r)
					for pi := range probes {
						affin[pi] += tables.PairEnergySmoothed(probes[pi], ap, r, smoothRadius)
					}
				}
				m.elec[idx] = float32(clamp(elec))
				m.desolv[idx] = float32(clamp(desolv))
				for pi := range probes {
					probeSlices[pi][idx] = float32(clamp(affin[pi]))
				}
				idx++
			}
		}
	}
	return m, nil
}
