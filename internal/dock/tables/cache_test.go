package tables

import "repro/internal/chem"

// AD4Smoothed, Electrostatic and Desolvation tabulate AD4Row's
// columns one table each, through the same cache and interning as the
// production tables; TestRowMatchesTables holds every column of a row
// to them bit for bit. No production path reads them.

// AD4Smoothed returns the AutoGrid-smoothed AD4 dispersion/H-bond
// potential for a (probe, receptor) type pair, with the r ≥ RMin clamp
// baked in.
func AD4Smoothed(probe, rec chem.AtomType) *Radial {
	return lookup(pairKey(kindAD4Smoothed, probe, rec), func() *Radial {
		return NewRadial(ad4Smoothed(probe, rec))
	})
}

// Electrostatic returns the unit-charge Mehler–Solmajer Coulomb table
// (multiply by the receptor atom's charge), r ≥ RMin clamp baked in.
func Electrostatic() *Radial {
	return lookup(key{k: kindElec}, func() *Radial { return NewRadial(elecUnit) })
}

// Desolvation returns the gaussian desolvation weight table (multiply
// by DesolvCoeff of the receptor atom), r ≥ RMin clamp baked in.
func Desolvation() *Radial {
	return lookup(key{k: kindDesolv}, func() *Radial { return NewRadial(desolvUnit) })
}
