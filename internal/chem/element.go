package chem

import "strings"

// Element is a chemical element symbol ("C", "N", "Hg", ...).
type Element string

// Elements that appear in the Peptidase_CA receptors and the
// CP-specific ligand set of the paper.
const (
	Hydrogen   Element = "H"
	Carbon     Element = "C"
	Nitrogen   Element = "N"
	Oxygen     Element = "O"
	Sulfur     Element = "S"
	Phosphorus Element = "P"
	Fluorine   Element = "F"
	Chlorine   Element = "Cl"
	Bromine    Element = "Br"
	Iodine     Element = "I"
	Zinc       Element = "Zn"
	Iron       Element = "Fe"
	Magnesium  Element = "Mg"
	Calcium    Element = "Ca"
	Mercury    Element = "Hg" // the looping-state culprit in §V.C
)

// ElementInfo holds per-element parameters used by preparation and
// scoring. Radii follow the AutoDock 4 parameter file (Rii/2) and
// standard covalent radii.
type ElementInfo struct {
	Symbol        Element
	Number        int     // atomic number
	CovalentR     float64 // Å, for bond perception
	VdwR          float64 // Å, van der Waals radius (AD4 Rii/2)
	WellDepth     float64 // kcal/mol, AD4 epsii
	Electroneg    float64 // Pauling electronegativity (charge model)
	Metal         bool
	DockSupported bool // false for atoms the docking programs reject (e.g. Hg)
}

var elementTable = map[Element]ElementInfo{
	Hydrogen:   {Hydrogen, 1, 0.31, 1.00, 0.020, 2.20, false, true},
	Carbon:     {Carbon, 6, 0.76, 2.00, 0.150, 2.55, false, true},
	Nitrogen:   {Nitrogen, 7, 0.71, 1.75, 0.160, 3.04, false, true},
	Oxygen:     {Oxygen, 8, 0.66, 1.60, 0.200, 3.44, false, true},
	Sulfur:     {Sulfur, 16, 1.05, 2.00, 0.200, 2.58, false, true},
	Phosphorus: {Phosphorus, 15, 1.07, 2.10, 0.200, 2.19, false, true},
	Fluorine:   {Fluorine, 9, 0.57, 1.54, 0.080, 3.98, false, true},
	Chlorine:   {Chlorine, 17, 1.02, 2.04, 0.276, 3.16, false, true},
	Bromine:    {Bromine, 35, 1.20, 2.17, 0.389, 2.96, false, true},
	Iodine:     {Iodine, 53, 1.39, 2.36, 0.550, 2.66, false, true},
	Zinc:       {Zinc, 30, 1.22, 0.74, 0.005, 1.65, true, true},
	Iron:       {Iron, 26, 1.32, 0.65, 0.010, 1.83, true, true},
	Magnesium:  {Magnesium, 12, 1.41, 0.65, 0.875, 1.31, true, true},
	Calcium:    {Calcium, 20, 1.76, 0.99, 0.550, 1.00, true, true},
	Mercury:    {Mercury, 80, 1.32, 1.55, 0.100, 2.00, true, false},
}

// Info returns parameters for the element, falling back to carbon-like
// defaults for unknown symbols (as the docking tools do for exotic
// atoms before rejecting them).
func (e Element) Info() ElementInfo {
	if info, ok := elementTable[e.normalize()]; ok {
		return info
	}
	info := elementTable[Carbon]
	info.Symbol = e
	info.DockSupported = false
	return info
}

func (e Element) normalize() Element {
	s := string(e)
	if s == "" {
		return e
	}
	s = strings.ToUpper(s[:1]) + strings.ToLower(s[1:])
	return Element(s)
}

// Normalize returns the canonical capitalization of the symbol
// ("CL" -> "Cl").
func (e Element) Normalize() Element { return e.normalize() }

// IsHeavy reports whether the element is not hydrogen.
func (e Element) IsHeavy() bool { return e.normalize() != Hydrogen }

// AtomType is an AutoDock 4 / Vina atom type. Grid maps are generated
// per atom type, and both scoring functions parameterize on them.
type AtomType string

// The AD4 atom-type alphabet used in this reproduction (subset of the
// full AD4.1 table sufficient for the Peptidase_CA workload).
const (
	TypeH  AtomType = "H"  // non-polar hydrogen (merged during prep)
	TypeHD AtomType = "HD" // polar hydrogen (H-bond donor)
	TypeC  AtomType = "C"  // aliphatic carbon
	TypeA  AtomType = "A"  // aromatic carbon
	TypeN  AtomType = "N"  // nitrogen, non-acceptor
	TypeNA AtomType = "NA" // nitrogen acceptor
	TypeOA AtomType = "OA" // oxygen acceptor
	TypeS  AtomType = "S"  // sulfur
	TypeSA AtomType = "SA" // sulfur acceptor
	TypeP  AtomType = "P"
	TypeF  AtomType = "F"
	TypeCl AtomType = "Cl"
	TypeBr AtomType = "Br"
	TypeI  AtomType = "I"
	TypeZn AtomType = "Zn"
	TypeFe AtomType = "Fe"
	TypeMg AtomType = "Mg"
	TypeCa AtomType = "Ca"
	TypeHg AtomType = "Hg" // unsupported: triggers preparation abort
)

// TypeParams holds the AD4 pairwise-potential parameters of an atom
// type (from the AD4.1 parameter file, abbreviated).
type TypeParams struct {
	Type      AtomType
	Rii       float64 // Å, sum of vdW radii for the i-i pair
	Epsii     float64 // kcal/mol, well depth
	SolVol    float64 // Å³, atomic solvation volume
	SolPar    float64 // atomic solvation parameter
	HBond     int     // 0 none, 1 donor-H, 2..5 acceptor classes
	Hydroph   bool    // hydrophobic for Vina's term
	Supported bool
}

var typeTable = map[AtomType]TypeParams{
	TypeH:  {TypeH, 2.00, 0.020, 0.0000, 0.00051, 0, false, true},
	TypeHD: {TypeHD, 2.00, 0.020, 0.0000, 0.00051, 1, false, true},
	TypeC:  {TypeC, 4.00, 0.150, 33.5103, -0.00143, 0, true, true},
	TypeA:  {TypeA, 4.00, 0.150, 33.5103, -0.00052, 0, true, true},
	TypeN:  {TypeN, 3.50, 0.160, 22.4493, -0.00162, 0, false, true},
	TypeNA: {TypeNA, 3.50, 0.160, 22.4493, -0.00162, 4, false, true},
	TypeOA: {TypeOA, 3.20, 0.200, 17.1573, -0.00251, 5, false, true},
	TypeS:  {TypeS, 4.00, 0.200, 33.5103, -0.00214, 0, false, true},
	TypeSA: {TypeSA, 4.00, 0.200, 33.5103, -0.00214, 5, false, true},
	TypeP:  {TypeP, 4.20, 0.200, 38.7924, -0.00110, 0, false, true},
	TypeF:  {TypeF, 3.09, 0.080, 15.4480, -0.00110, 0, true, true},
	TypeCl: {TypeCl, 4.09, 0.276, 35.8235, -0.00110, 0, true, true},
	TypeBr: {TypeBr, 4.33, 0.389, 42.5661, -0.00110, 0, true, true},
	TypeI:  {TypeI, 4.72, 0.550, 55.0585, -0.00110, 0, true, true},
	TypeZn: {TypeZn, 1.48, 0.005, 1.7000, -0.00110, 0, false, true},
	TypeFe: {TypeFe, 1.30, 0.010, 1.8400, -0.00110, 0, false, true},
	TypeMg: {TypeMg, 1.30, 0.875, 1.5600, -0.00110, 0, false, true},
	TypeCa: {TypeCa, 1.98, 0.550, 2.7700, -0.00110, 0, false, true},
	TypeHg: {TypeHg, 3.10, 0.100, 17.0000, -0.00110, 0, false, false},
}

// Params returns the AD4 parameters of an atom type. Unknown types get
// carbon-like defaults flagged unsupported, mirroring how the real
// tools stall on unparameterized atoms.
func (t AtomType) Params() TypeParams {
	if p, ok := typeTable[t]; ok {
		return p
	}
	p := typeTable[TypeC]
	p.Type = t
	p.Supported = false
	return p
}

// AllTypes returns every supported atom type in deterministic order.
func AllTypes() []AtomType {
	return []AtomType{
		TypeH, TypeHD, TypeC, TypeA, TypeN, TypeNA, TypeOA,
		TypeS, TypeSA, TypeP, TypeF, TypeCl, TypeBr, TypeI,
		TypeZn, TypeFe, TypeMg, TypeCa,
	}
}

// TypeForElement returns the default AutoDock type for an element,
// before context-sensitive refinement (aromaticity, acceptor state,
// polar hydrogens) applied by the preparation step.
func TypeForElement(e Element) AtomType {
	switch e.normalize() {
	case Hydrogen:
		return TypeH
	case Carbon:
		return TypeC
	case Nitrogen:
		return TypeN
	case Oxygen:
		return TypeOA
	case Sulfur:
		return TypeS
	case Phosphorus:
		return TypeP
	case Fluorine:
		return TypeF
	case Chlorine:
		return TypeCl
	case Bromine:
		return TypeBr
	case Iodine:
		return TypeI
	case Zinc:
		return TypeZn
	case Iron:
		return TypeFe
	case Magnesium:
		return TypeMg
	case Calcium:
		return TypeCa
	case Mercury:
		return TypeHg
	default:
		return TypeC
	}
}
