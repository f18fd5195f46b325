// Command dockbench regenerates the paper's evaluation artifacts:
// Tables 1-3 and Figures 5-11 of "Exploring Large Scale
// Receptor-Ligand Pairs in Molecular Docking Workflows in HPC Clouds"
// (IPPS 2014).
//
//	dockbench -exp all          # every table and figure (minutes)
//	dockbench -exp f7           # the TET scalability curve
//	dockbench -exp t3 -quick    # reduced workload (seconds)
//	dockbench -exp fit          # re-fit internal/core/calibrate.go (not part of all)
//
// Performance is measured by `go run ./bench`, not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dockbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dockbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment id: t1, t2, t3, f5..f11 or all; fit re-derives the FEB calibration")
	quick := fs.Bool("quick", false, "reduced workloads (for smoke runs)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	s := &experiments.Suite{Quick: *quick}
	out, err := s.ByName(*exp)
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(stdout, out)
	return err
}
