package prep

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/textio"
)

// Program selects the docking engine for a pair, the output of
// SciDock's activity 6 (docking filter).
type Program string

// Docking programs.
const (
	ProgramAD4  Program = "autodock4"
	ProgramVina Program = "vina"
)

// FilterDocking is SciDock activity 6: the in-house python script that
// splits receptors by size. Small receptors dock with AutoDock 4,
// large (and more flexible) ones with Vina, per §IV.A.
func FilterDocking(info data.ReceptorInfo) Program {
	if info.Class == data.SmallReceptor {
		return ProgramAD4
	}
	return ProgramVina
}

// GPF is the Grid Parameter File of activity 4: everything AutoGrid
// needs to build the coordinate maps.
type GPF struct {
	Receptor   string          // receptor PDBQT file name
	Ligand     string          // ligand PDBQT file name
	Types      []chem.AtomType // ligand atom types (one map each)
	NPts       [3]int          // grid points per dimension (even, as AutoGrid requires)
	Spacing    float64         // Å between grid points
	Center     chem.Vec3       // grid centre
	Dielectric float64         // distance-dependent dielectric factor
}

// DefaultGPF derives grid parameters from the prepared receptor and
// ligand: the grid covers the pocket bounding box plus clearance for
// ligand rotation, exactly what MGLTools' prepare_gpf4.py computes.
func DefaultGPF(receptor *chem.Molecule, lig *PreparedLigand, spacing float64) GPF {
	if spacing <= 0 {
		spacing = 0.375 // AutoGrid default
	}
	min, max := chem.BoundingBox(receptor.Positions())
	center := min.Lerp(max, 0.5)
	// Ligand maximum extent from its centroid, for clearance.
	lc := lig.Mol.Centroid()
	var maxExt float64
	for _, p := range lig.Mol.Positions() {
		if d := p.Dist(lc); d > maxExt {
			maxExt = d
		}
	}
	span := max.Sub(min)
	largest := span.X
	if span.Y > largest {
		largest = span.Y
	}
	if span.Z > largest {
		largest = span.Z
	}
	extent := largest + 2*maxExt + 4 // Å of padding
	n := int(extent/spacing) + 1
	if n%2 == 1 {
		n++ // AutoGrid requires even npts
	}
	if n > 126 {
		n = 126 // AutoGrid's hard maximum
	}
	types := lig.Mol.AtomTypes()
	return GPF{
		Receptor:   receptor.Name + ".pdbqt",
		Ligand:     lig.Mol.Name + ".pdbqt",
		Types:      types,
		NPts:       [3]int{n, n, n},
		Spacing:    spacing,
		Center:     center,
		Dielectric: -0.1465, // AutoGrid default (distance-dependent)
	}
}

// WriteGPF emits the grid parameter file in AutoGrid's keyword format.
func WriteGPF(w io.Writer, g *GPF) error {
	bw := textio.NewWriter(w)
	fmt.Fprintf(bw, "npts %d %d %d\n", g.NPts[0], g.NPts[1], g.NPts[2])
	fmt.Fprintf(bw, "gridfld %s.maps.fld\n", strings.TrimSuffix(g.Receptor, ".pdbqt"))
	fmt.Fprintf(bw, "spacing %.3f\n", g.Spacing)
	fmt.Fprintf(bw, "receptor_types %s\n", "A C HD N NA OA SA S")
	fmt.Fprintf(bw, "ligand_types %s\n", joinTypes(g.Types))
	fmt.Fprintf(bw, "receptor %s\n", g.Receptor)
	fmt.Fprintf(bw, "gridcenter %.3f %.3f %.3f\n", g.Center.X, g.Center.Y, g.Center.Z)
	fmt.Fprintf(bw, "smooth 0.5\n")
	for _, t := range g.Types {
		fmt.Fprintf(bw, "map %s.%s.map\n", strings.TrimSuffix(g.Receptor, ".pdbqt"), t)
	}
	fmt.Fprintf(bw, "elecmap %s.e.map\n", strings.TrimSuffix(g.Receptor, ".pdbqt"))
	fmt.Fprintf(bw, "dsolvmap %s.d.map\n", strings.TrimSuffix(g.Receptor, ".pdbqt"))
	fmt.Fprintf(bw, "dielectric %.4f\n", g.Dielectric)
	return bw.Flush()
}

// ParseGPF reads a grid parameter file written by WriteGPF.
func ParseGPF(r io.Reader, name string) (*GPF, error) {
	g := &GPF{Spacing: 0.375, Dielectric: -0.1465}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		switch f[0] {
		case "npts":
			if len(f) != 4 {
				return nil, fmt.Errorf("prep: gpf %q line %d: npts needs 3 values", name, lineNo)
			}
			for i := 0; i < 3; i++ {
				v, err := strconv.Atoi(f[i+1])
				if err != nil {
					return nil, fmt.Errorf("prep: gpf %q line %d: bad npts: %w", name, lineNo, err)
				}
				g.NPts[i] = v
			}
		case "spacing":
			if len(f) != 2 {
				return nil, fmt.Errorf("prep: gpf %q line %d: spacing needs 1 value", name, lineNo)
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return nil, fmt.Errorf("prep: gpf %q line %d: bad spacing: %w", name, lineNo, err)
			}
			g.Spacing = v
		case "receptor":
			if len(f) == 2 {
				g.Receptor = f[1]
			}
		case "ligand_types":
			for _, t := range f[1:] {
				g.Types = append(g.Types, chem.AtomType(t))
			}
		case "gridcenter":
			if len(f) != 4 {
				return nil, fmt.Errorf("prep: gpf %q line %d: gridcenter needs 3 values", name, lineNo)
			}
			var c [3]float64
			for i := 0; i < 3; i++ {
				v, err := strconv.ParseFloat(f[i+1], 64)
				if err != nil {
					return nil, fmt.Errorf("prep: gpf %q line %d: bad gridcenter: %w", name, lineNo, err)
				}
				c[i] = v
			}
			g.Center = chem.V(c[0], c[1], c[2])
		case "dielectric":
			if len(f) == 2 {
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					g.Dielectric = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prep: gpf %q: %w", name, err)
	}
	if g.NPts[0] == 0 || g.Receptor == "" {
		return nil, fmt.Errorf("prep: gpf %q missing npts or receptor", name)
	}
	return g, nil
}

func joinTypes(ts []chem.AtomType) string {
	ss := make([]string, len(ts))
	for i, t := range ts {
		ss[i] = string(t)
	}
	return strings.Join(ss, " ")
}

// DPF is the Docking Parameter File of activity 7a: the AutoDock 4
// Lamarckian GA configuration.
type DPF struct {
	Ligand     string
	FLD        string // grid field file
	Runs       int    // ga_run
	PopSize    int    // ga_pop_size
	Gens       int    // ga_num_generations
	Evals      int    // ga_num_evals cap
	MutRate    float64
	CrossRate  float64
	LocalIts   int // Solis-Wets iterations per local search
	LocalRate  float64
	RandomSeed int64
}

// DefaultDPF returns the AD4 defaults scaled to this reproduction's
// reduced search effort (documented in DESIGN.md §2).
func DefaultDPF(ligand string, fld string, seed int64) DPF {
	return DPF{
		Ligand: ligand, FLD: fld,
		Runs: 10, PopSize: 50, Gens: 42, Evals: 25000,
		MutRate: 0.02, CrossRate: 0.8,
		LocalIts: 30, LocalRate: 0.06,
		RandomSeed: seed,
	}
}

// WriteDPF emits the docking parameter file in AutoDock's format.
func WriteDPF(w io.Writer, d *DPF) error {
	bw := textio.NewWriter(w)
	fmt.Fprintf(bw, "autodock_parameter_version 4.2\n")
	fmt.Fprintf(bw, "seed %d\n", d.RandomSeed)
	fmt.Fprintf(bw, "fld %s\n", d.FLD)
	fmt.Fprintf(bw, "move %s\n", d.Ligand)
	fmt.Fprintf(bw, "ga_pop_size %d\n", d.PopSize)
	fmt.Fprintf(bw, "ga_num_generations %d\n", d.Gens)
	fmt.Fprintf(bw, "ga_num_evals %d\n", d.Evals)
	fmt.Fprintf(bw, "ga_mutation_rate %.3f\n", d.MutRate)
	fmt.Fprintf(bw, "ga_crossover_rate %.3f\n", d.CrossRate)
	fmt.Fprintf(bw, "sw_max_its %d\n", d.LocalIts)
	fmt.Fprintf(bw, "ls_search_freq %.3f\n", d.LocalRate)
	fmt.Fprintf(bw, "ga_run %d\n", d.Runs)
	fmt.Fprintf(bw, "analysis\n")
	return bw.Flush()
}

// ParseDPF reads a docking parameter file written by WriteDPF.
func ParseDPF(r io.Reader, name string) (*DPF, error) {
	d := &DPF{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		f := strings.Fields(sc.Text())
		if len(f) < 2 {
			continue
		}
		var err error
		switch f[0] {
		case "seed":
			d.RandomSeed, err = strconv.ParseInt(f[1], 10, 64)
		case "fld":
			d.FLD = f[1]
		case "move":
			d.Ligand = f[1]
		case "ga_pop_size":
			d.PopSize, err = strconv.Atoi(f[1])
		case "ga_num_generations":
			d.Gens, err = strconv.Atoi(f[1])
		case "ga_num_evals":
			d.Evals, err = strconv.Atoi(f[1])
		case "ga_mutation_rate":
			d.MutRate, err = strconv.ParseFloat(f[1], 64)
		case "ga_crossover_rate":
			d.CrossRate, err = strconv.ParseFloat(f[1], 64)
		case "sw_max_its":
			d.LocalIts, err = strconv.Atoi(f[1])
		case "ls_search_freq":
			d.LocalRate, err = strconv.ParseFloat(f[1], 64)
		case "ga_run":
			d.Runs, err = strconv.Atoi(f[1])
		}
		if err != nil {
			return nil, fmt.Errorf("prep: dpf %q line %d: %w", name, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prep: dpf %q: %w", name, err)
	}
	if d.Ligand == "" || d.Runs == 0 {
		return nil, fmt.Errorf("prep: dpf %q missing move/ga_run", name)
	}
	return d, nil
}

// VinaConfig is the configuration file of activity 7b: the box and
// search parameters for AutoDock Vina.
type VinaConfig struct {
	Receptor       string
	Ligand         string
	Center         chem.Vec3
	Size           chem.Vec3 // box edge lengths, Å
	Exhaustiveness int
	NumModes       int
	Seed           int64
}

// DefaultVinaConfig derives the Vina box from the grid parameter file,
// as SciDock's custom python script does.
func DefaultVinaConfig(g *GPF, ligand string, seed int64) VinaConfig {
	return VinaConfig{
		Receptor: g.Receptor,
		Ligand:   ligand,
		Center:   g.Center,
		Size: chem.V(
			float64(g.NPts[0])*g.Spacing,
			float64(g.NPts[1])*g.Spacing,
			float64(g.NPts[2])*g.Spacing,
		),
		Exhaustiveness: 8,
		NumModes:       9,
		Seed:           seed,
	}
}

// WriteVinaConfig emits the config in Vina's key = value format.
func WriteVinaConfig(w io.Writer, c *VinaConfig) error {
	bw := textio.NewWriter(w)
	fmt.Fprintf(bw, "receptor = %s\n", c.Receptor)
	fmt.Fprintf(bw, "ligand = %s\n", c.Ligand)
	fmt.Fprintf(bw, "center_x = %.3f\ncenter_y = %.3f\ncenter_z = %.3f\n",
		c.Center.X, c.Center.Y, c.Center.Z)
	fmt.Fprintf(bw, "size_x = %.3f\nsize_y = %.3f\nsize_z = %.3f\n",
		c.Size.X, c.Size.Y, c.Size.Z)
	fmt.Fprintf(bw, "exhaustiveness = %d\n", c.Exhaustiveness)
	fmt.Fprintf(bw, "num_modes = %d\n", c.NumModes)
	fmt.Fprintf(bw, "seed = %d\n", c.Seed)
	return bw.Flush()
}

// ParseVinaConfig reads a Vina configuration file.
func ParseVinaConfig(r io.Reader, name string) (*VinaConfig, error) {
	c := &VinaConfig{Exhaustiveness: 8, NumModes: 9}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			continue
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		var err error
		switch key {
		case "receptor":
			c.Receptor = val
		case "ligand":
			c.Ligand = val
		case "center_x":
			c.Center.X, err = strconv.ParseFloat(val, 64)
		case "center_y":
			c.Center.Y, err = strconv.ParseFloat(val, 64)
		case "center_z":
			c.Center.Z, err = strconv.ParseFloat(val, 64)
		case "size_x":
			c.Size.X, err = strconv.ParseFloat(val, 64)
		case "size_y":
			c.Size.Y, err = strconv.ParseFloat(val, 64)
		case "size_z":
			c.Size.Z, err = strconv.ParseFloat(val, 64)
		case "exhaustiveness":
			c.Exhaustiveness, err = strconv.Atoi(val)
		case "num_modes":
			c.NumModes, err = strconv.Atoi(val)
		case "seed":
			c.Seed, err = strconv.ParseInt(val, 10, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("prep: vina config %q line %d: %w", name, lineNo, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prep: vina config %q: %w", name, err)
	}
	if c.Receptor == "" || c.Ligand == "" {
		return nil, fmt.Errorf("prep: vina config %q missing receptor/ligand", name)
	}
	return c, nil
}
