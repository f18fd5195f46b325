package lint

import (
	"go/ast"
	"strings"
)

// docDirective returns the payload of the first `//name: payload` line
// of a comment group, and whether the group has one. gofmt rewrites a
// doc-comment line `//name: x` to `// name: x` (a space after the colon
// disqualifies it as a Go directive), so both spellings count: an
// annotation must not switch its analyzer off by being formatted.
func docDirective(cg *ast.CommentGroup, name string) (string, bool) {
	if cg == nil {
		return "", false
	}
	for _, c := range cg.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, name+":"); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// ignoreDirective is a parsed //lint:ignore comment.
type ignoreDirective struct {
	analyzers map[string]bool // lower-cased names, or {"all": true}
}

// parseIgnore parses the text of one comment line. It returns nil for
// comments that are not well-formed directives: the analyzer list and
// a non-empty reason are both mandatory, so suppressions stay
// self-documenting.
func parseIgnore(text string) *ignoreDirective {
	text = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(text), "//"))
	rest, ok := strings.CutPrefix(text, "lint:ignore")
	if !ok {
		return nil
	}
	fields := strings.Fields(rest)
	if len(fields) < 2 { // need analyzer list AND a reason
		return nil
	}
	d := &ignoreDirective{analyzers: map[string]bool{}}
	for _, name := range strings.Split(fields[0], ",") {
		if name = strings.TrimSpace(name); name != "" {
			d.analyzers[strings.ToLower(name)] = true
		}
	}
	if len(d.analyzers) == 0 {
		return nil
	}
	return d
}

// ignoreIndex maps file -> line -> directive for one load.
type ignoreIndex map[string]map[int]*ignoreDirective

func buildIgnoreIndex(pkgs []*Package) ignoreIndex {
	idx := ignoreIndex{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					d := parseIgnore(c.Text)
					if d == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					lines := idx[pos.Filename]
					if lines == nil {
						lines = map[int]*ignoreDirective{}
						idx[pos.Filename] = lines
					}
					lines[pos.Line] = d
				}
			}
		}
	}
	return idx
}

// suppresses reports whether a directive on the diagnostic's line or
// the line directly above it names the analyzer (or "all").
func (idx ignoreIndex) suppresses(d Diagnostic) bool {
	lines := idx[d.Pos.Filename]
	if lines == nil {
		return false
	}
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if dir := lines[line]; dir != nil {
			if dir.analyzers["all"] || dir.analyzers[strings.ToLower(d.Analyzer)] {
				return true
			}
		}
	}
	return false
}

func filterIgnored(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	idx := buildIgnoreIndex(pkgs)
	out := diags[:0]
	for _, d := range diags {
		if !idx.suppresses(d) {
			out = append(out, d)
		}
	}
	return out
}
