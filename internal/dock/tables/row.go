package tables

import (
	"math"
	"strings"
	"sync"

	"repro/internal/chem"
)

// Row is every table map generation reads for one receptor atom type,
// node-interleaved: the AD4 smoothed pair potential of each probe type
// in the order given, then Electrostatic, then Desolvation. A lattice
// point's hit finds its bin and fraction once, and the two nodes of
// every column sit side by side in memory, where separate tables would
// cost two cache lines each.
type Row struct {
	cols int
	vals []float64 // vals[i*cols+c] is node i of column c, nNodes+1 nodes
}

// rowKey identifies one row: the receptor type and the probe list,
// joined with a byte no atom type contains.
type rowKey struct {
	rec    chem.AtomType
	probes string
}

// rows holds every built Row for the process lifetime, like cache.
var rows sync.Map // rowKey -> *Row

// AD4Row returns the interned row of receptor type rec for the probe
// list probes: len(probes)+2 columns, column c < len(probes) holding
// the bits of AD4Smoothed(probes[c], rec), then those of Electrostatic
// and Desolvation. The columns are tabulated from the same potentials,
// so building a row puts no table into the cache.
func AD4Row(rec chem.AtomType, probes []chem.AtomType) *Row {
	names := make([]string, len(probes))
	for i, p := range probes {
		names[i] = string(p)
	}
	k := rowKey{rec: rec, probes: strings.Join(names, "\x00")}
	if v, ok := rows.Load(k); ok {
		return v.(*Row)
	}
	fs := make([]func(r float64) float64, 0, len(probes)+2)
	for _, p := range probes {
		fs = append(fs, ad4Smoothed(p, rec))
	}
	fs = append(fs, elecUnit, desolvUnit)
	r := &Row{cols: len(fs), vals: make([]float64, len(fs)*(nNodes+1))}
	for c, f := range fs {
		for i, v := range NewRadial(f).vals {
			r.vals[i*r.cols+c] = v
		}
	}
	v, _ := rows.LoadOrStore(k, r)
	return v.(*Row)
}

// AddAt2 adds each probe column's value at squared distance r2 ≥ 0 to
// acc[c], c < len(probes), and returns the Electrostatic and
// Desolvation columns' values. Every value is its column's
// Radial.At2(r2), bit for bit — the same bin, fraction and
// interpolation, found once for the whole row.
//
// unit: r2=Å2
func (r *Row) AddAt2(acc []float64, r2 float64) (elec, desolv float64) {
	var i int
	var frac float64
	if r2 < RMin2 {
		x := float64(r2 * coreInv)
		i = int(x)
		frac = x - float64(i)
	} else {
		b := math.Float64bits(r2)
		i = int(min(b>>fracBits, octaveBase+nNodes-1)) - octaveBase
		frac = float64(b&(1<<fracBits-1)) * (1.0 / (1 << fracBits))
	}
	lo := r.vals[i*r.cols : (i+1)*r.cols]
	hi := r.vals[(i+1)*r.cols : (i+2)*r.cols]
	hi = hi[:len(lo)]
	np := r.cols - 2
	acc = acc[:np]
	for c, v := range lo[:np] {
		acc[c] += v + float64(frac*(hi[c]-v))
	}
	e, d := lo[np], lo[np+1]
	return e + float64(frac*(hi[np]-e)), d + float64(frac*(hi[np+1]-d))
}
