package prep

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/chem"
)

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
