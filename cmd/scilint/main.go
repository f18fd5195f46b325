// Command scilint runs scidock's domain-aware static analyzers over
// the module and reports findings with file:line positions.
//
//	scilint [flags] [packages]
//
// Packages follow the go tool's pattern syntax ("./...", "internal/dock",
// import paths); the default is "./...". Exit status: 0 when no
// finding survives suppression, 1 when at least one does, 2 on usage
// or load failure. Suppress a finding at its source line (or the line
// above) with:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scilint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut = fs.Bool("json", false, "emit findings as a JSON array")
		list    = fs.Bool("list", false, "list registered analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: scilint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	pkgs, err := lint.Load(fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			fmt.Fprintf(stderr, "scilint: %s: %d type error(s); first: %v\n",
				pkg.Path, len(pkg.TypeErrors), pkg.TypeErrors[0])
			return 2
		}
	}

	diags := lint.Run(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		cwd, err := os.Getwd()
		if err != nil {
			cwd = "" // fall back to absolute paths in output
		}
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s: %s\n", relPos(cwd, d), d.Analyzer, d.Message)
		}
		if len(diags) > 0 {
			counts := map[string]int{}
			for _, d := range diags {
				counts[d.Analyzer]++
			}
			names := make([]string, 0, len(counts))
			for n := range counts {
				names = append(names, n)
			}
			sort.Strings(names)
			fmt.Fprintf(stdout, "scilint: %d finding(s):", len(diags))
			for _, n := range names {
				fmt.Fprintf(stdout, " %s=%d", n, counts[n])
			}
			fmt.Fprintln(stdout)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// relPos renders a position with a path relative to the working
// directory when possible, keeping output stable across machines.
func relPos(cwd string, d lint.Diagnostic) string {
	name := d.Pos.Filename
	if cwd != "" {
		if rel, err := filepath.Rel(cwd, name); err == nil && !filepath.IsAbs(rel) {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d", name, d.Pos.Line, d.Pos.Column)
}
