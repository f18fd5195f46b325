// Package loading: a self-contained, source-based loader so scilint
// needs no external driver (golang.org/x/tools is off-limits per repo
// policy). Module-local packages resolve against go.mod; standard
// library packages type-check straight from GOROOT/src. Cgo is
// disabled so every package in the closure is pure Go.
package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked module package.
type Package struct {
	// Path is the package's import path.
	Path string
	// Fset maps positions; shared across all packages of a load.
	Fset *token.FileSet
	// Files are the parsed sources (with comments), in-package
	// _test.go files included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds expression types, uses and definitions.
	Info *types.Info
	// TypeErrors collects type-checker complaints (the load keeps
	// going; callers decide whether they are fatal).
	TypeErrors []error

	insp *inspector
}

// Load resolves patterns ("./...", "dir/...", relative directories or
// module import paths, relative to the current directory) to module
// packages and type-checks each one, in-package tests included, along
// with its full dependency closure.
func Load(patterns ...string) ([]*Package, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	modDir, modPath, goVersion, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	ld := newLoader(modDir, modPath, goVersion)

	dirs, err := expandPatterns(dir, modDir, modPath, patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := ld.loadDir(d)
		if err != nil {
			if isNoGoError(err) {
				continue
			}
			return nil, fmt.Errorf("lint: %s: %w", d, err)
		}
		pkgs = append(pkgs, pkg)
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("lint: no packages matched %v", patterns)
	}
	return pkgs, nil
}

func isNoGoError(err error) bool {
	_, ok := err.(*build.NoGoError)
	if ok {
		return true
	}
	return strings.Contains(err.Error(), "no buildable Go source files")
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module root, module path and go directive.
func findModule(dir string) (modDir, modPath, goVersion string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			modPath, goVersion = parseGoMod(string(data))
			if modPath == "" {
				return "", "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
			}
			return d, modPath, goVersion, nil
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", "", fmt.Errorf("lint: no go.mod above %s", abs)
		}
	}
}

func parseGoMod(src string) (modPath, goVersion string) {
	for _, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.Trim(strings.TrimSpace(rest), `"`)
		} else if rest, ok := strings.CutPrefix(line, "go "); ok {
			goVersion = "go" + strings.TrimSpace(rest)
		}
	}
	return modPath, goVersion
}

// expandPatterns maps CLI patterns to package directories.
func expandPatterns(base, modDir, modPath string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := map[string]bool{}
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			walkGoDirs(modDir, add)
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			if !filepath.IsAbs(root) {
				if strings.HasPrefix(root, modPath) {
					root = filepath.Join(modDir, strings.TrimPrefix(root, modPath))
				} else {
					root = filepath.Join(base, root)
				}
			}
			walkGoDirs(root, add)
		case strings.HasPrefix(pat, modPath+"/") || pat == modPath:
			add(filepath.Join(modDir, strings.TrimPrefix(pat, modPath)))
		case filepath.IsAbs(pat):
			add(filepath.Clean(pat))
		default:
			add(filepath.Join(base, pat))
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// walkGoDirs visits every directory under root containing Go files,
// skipping testdata, vendor and hidden/underscore directories exactly
// as the go tool's "..." wildcard does.
func walkGoDirs(root string, add func(string)) {
	filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			add(filepath.Dir(path))
		}
		return nil
	})
}

// --- loader ----------------------------------------------------------

// loader type-checks packages from source, caching completed packages
// so each import path is checked once per load.
type loader struct {
	fset      *token.FileSet
	ctxt      build.Context
	modDir    string
	modPath   string
	goVersion string

	cache   map[string]*types.Package // completed dependency packages
	loading map[string]bool           // cycle detection
}

func newLoader(modDir, modPath, goVersion string) *loader {
	ctxt := build.Default
	ctxt.CgoEnabled = false // pure-Go closure: cgo files excluded by tags
	return &loader{
		fset:      token.NewFileSet(),
		ctxt:      ctxt,
		modDir:    modDir,
		modPath:   modPath,
		goVersion: goVersion,
		cache:     map[string]*types.Package{},
		loading:   map[string]bool{},
	}
}

// Import implements types.Importer for dependency resolution.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	dir, local, err := l.resolve(path)
	if err != nil {
		return nil, err
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir, false)
	if err != nil {
		return nil, err
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	if local {
		conf.GoVersion = l.goVersion
	}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if pkg == nil {
		return nil, err
	}
	// Keep incomplete packages out of the cache so a retry surfaces
	// the same error instead of a confusing downstream one.
	if !pkg.Complete() {
		return pkg, fmt.Errorf("package %q did not type-check cleanly: %v", path, err)
	}
	l.cache[path] = pkg
	return pkg, nil
}

// resolve maps an import path to the directory holding its sources.
func (l *loader) resolve(path string) (dir string, local bool, err error) {
	if path == l.modPath {
		return l.modDir, true, nil
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return filepath.Join(l.modDir, rest), true, nil
	}
	// Standard library: first path element has no dot.
	first := path
	if i := strings.IndexByte(path, '/'); i >= 0 {
		first = path[:i]
	}
	if !strings.Contains(first, ".") {
		return filepath.Join(l.ctxt.GOROOT, "src", path), false, nil
	}
	return "", false, fmt.Errorf("external dependency %q not supported (module is dependency-free by policy)", path)
}

// parseDir parses a package directory's buildable files. Target
// packages keep comments (for ignore directives) and include
// in-package test files.
func (l *loader) parseDir(dir string, target bool) ([]*ast.File, error) {
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), bp.GoFiles...)
	if target {
		names = append(names, bp.TestGoFiles...)
	}
	sort.Strings(names)
	mode := parser.SkipObjectResolution
	if target {
		mode |= parser.ParseComments
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// importPathFor maps a module directory back to its import path.
func (l *loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.modDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("directory %s is outside module %s", dir, l.modDir)
	}
	if rel == "." {
		return l.modPath, nil
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir type-checks one target package with full syntax and Info.
func (l *loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	files, err := l.parseDir(dir, true)
	if err != nil {
		return nil, err
	}
	return l.check(path, files)
}

// check type-checks already-parsed target files.
func (l *loader) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	pkg := &Package{
		Path:  path,
		Fset:  l.fset,
		Files: files,
		Info:  info,
	}
	conf := types.Config{
		Importer:  l,
		GoVersion: l.goVersion,
		Error:     func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if tpkg == nil {
		return nil, err
	}
	pkg.Types = tpkg
	return pkg, nil
}
