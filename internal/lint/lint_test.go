package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// checkFixture type-checks one in-memory fixture file as package
// `path` (which controls path-sensitive analyzers like detflow). The
// loader is shared so the standard-library closure is type-checked
// once per test binary, not once per case.
var testLoader *loader

func checkFixture(t *testing.T, path, filename, src string) *Package {
	t.Helper()
	ld := testLoader
	if ld == nil {
		modDir, modPath, goVersion, err := findModule(".")
		if err != nil {
			t.Fatalf("findModule: %v", err)
		}
		ld = newLoader(modDir, modPath, goVersion)
		testLoader = ld
	}
	f, err := parser.ParseFile(ld.fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	pkg, err := ld.check(path, []*ast.File{f})
	if err != nil && pkg == nil {
		t.Fatalf("check fixture: %v", err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture type error: %v", terr)
	}
	return pkg
}

// wantRE extracts `// want "regexp"` markers: line number -> pattern.
var wantMarkerRE = regexp.MustCompile(`// want "([^"]+)"`)

func wantMarkers(t *testing.T, src string) map[int]*regexp.Regexp {
	t.Helper()
	out := map[int]*regexp.Regexp{}
	for i, line := range strings.Split(src, "\n") {
		m := wantMarkerRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		re, err := regexp.Compile(m[1])
		if err != nil {
			t.Fatalf("line %d: bad want pattern %q: %v", i+1, m[1], err)
		}
		out[i+1] = re
	}
	return out
}

// runCase runs one analyzer over one fixture (through the full Run
// pipeline, so //lint:ignore filtering applies) and asserts that the
// diagnostics exactly match the `// want` markers by line.
func runCase(t *testing.T, an *Analyzer, path, filename, src string) {
	t.Helper()
	pkg := checkFixture(t, path, filename, src)
	diags := Run([]*Package{pkg}, []*Analyzer{an})

	want := wantMarkers(t, src)
	got := map[int][]string{}
	for _, d := range diags {
		got[d.Pos.Line] = append(got[d.Pos.Line], d.Message)
	}
	for line, re := range want {
		msgs, ok := got[line]
		if !ok {
			t.Errorf("line %d: expected diagnostic matching %q, got none", line, re)
			continue
		}
		matched := false
		for _, m := range msgs {
			if re.MatchString(m) {
				matched = true
			}
		}
		if !matched {
			t.Errorf("line %d: diagnostics %q do not match %q", line, msgs, re)
		}
	}
	for line, msgs := range got {
		if _, ok := want[line]; !ok {
			t.Errorf("line %d: unexpected diagnostic(s): %q", line, msgs)
		}
	}
}

func TestFloatCmp(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"flags_equality", `package p

func same(a, b float64) bool {
	return a == b // want "exact floating-point == comparison"
}

func diff(a, b float32) bool {
	return a != b // want "exact floating-point != comparison"
}
`},
		{"zero_guard_and_nan_exempt", `package p

func guards(a float64) bool {
	if a == 0 { // zero guard: exempt
		return false
	}
	return a != a // NaN idiom: exempt
}

const eps = 1e-9

func constFold() bool {
	return eps == 0.0 // both constant: exempt
}
`},
		{"epsilon_helper_exempt", `package p

import "math"

func almostEqual(a, b, tol float64) bool {
	if a == b { // inside approved helper: exempt
		return true
	}
	return math.Abs(a-b) <= tol
}

func ints(a, b int) bool { return a == b } // not float: exempt
`},
		{"suppression", `package p

func tieBreak(a, b float64) bool {
	//lint:ignore floatcmp exact tie detection is intentional here
	return a == b
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runCase(t, FloatCmp, "fixture/floatcmp", "fixture.go", tc.src)
		})
	}
}

func TestDiscardErr(t *testing.T) {
	cases := []struct {
		name, file, src string
	}{
		{"flags_discards", "fixture.go", `package p

import "strconv"

func f() error { return nil }

func g() {
	_ = f() // want "error value discarded"
	n, _ := strconv.Atoi("7") // want "error value discarded"
	_ = n
}
`},
		{"negatives", "fixture.go", `package p

import "errors"

type myErr struct{}

func (myErr) Error() string { return "x" }

func keep(m map[string]int, v any) (int, bool, error) {
	_, ok := v.(myErr)       // type assertion: exempt
	n, present := m["k"]     // comma-ok map read: no error involved
	err := errors.New("kept")
	return n, ok && present, err
}
`},
		{"test_files_exempt", "fixture_test.go", `package p

import "strconv"

func h() {
	n, _ := strconv.Atoi("7") // test file: exempt
	_ = n
}
`},
		{"suppression", "fixture.go", `package p

import "strconv"

func h() int {
	//lint:ignore discarderr input validated upstream, parse cannot fail
	n, _ := strconv.Atoi("7")
	return n
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runCase(t, DiscardErr, "fixture/discarderr", tc.file, tc.src)
		})
	}
}

func TestIgnoreDirectiveParsing(t *testing.T) {
	if d := parseIgnore("//lint:ignore floatcmp reason here"); d == nil || !d.analyzers["floatcmp"] {
		t.Fatalf("well-formed directive not parsed: %+v", d)
	}
	if d := parseIgnore("//lint:ignore floatcmp,discarderr shared reason"); d == nil ||
		!d.analyzers["floatcmp"] || !d.analyzers["discarderr"] {
		t.Fatalf("multi-analyzer directive not parsed: %+v", d)
	}
	if d := parseIgnore("//lint:ignore floatcmp"); d != nil {
		t.Fatal("directive without reason must be rejected")
	}
	if d := parseIgnore("// plain comment"); d != nil {
		t.Fatal("non-directive comment must not parse")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"detflow", "discarderr", "floatcmp"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("registry[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) does not round-trip", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("ByName of unknown analyzer must be nil")
	}
}

// TestFixturePackages loads the on-disk fixture packages end-to-end
// through Load (the same path cmd/scilint uses) and pins how many
// findings each analyzer reports in each package.
func TestFixturePackages(t *testing.T) {
	pkgs, err := Load("testdata/src/sick", "testdata/src/internal/dock",
		"testdata/src/noise", "testdata/src/clean")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		if len(p.TypeErrors) > 0 {
			t.Fatalf("%s: fixture must type-check, got %v", p.Path, p.TypeErrors[0])
		}
	}
	diags := Run(pkgs, Analyzers())

	got := map[string]map[string]int{}
	for _, d := range diags {
		key := "other"
		switch {
		case strings.Contains(d.Pos.Filename, "src/sick"):
			key = "sick"
		case strings.Contains(d.Pos.Filename, "src/internal/dock"):
			key = "dock"
		case strings.Contains(d.Pos.Filename, "src/noise"):
			key = "noise"
		case strings.Contains(d.Pos.Filename, "src/clean"):
			key = "clean"
		}
		if got[key] == nil {
			got[key] = map[string]int{}
		}
		got[key][d.Analyzer]++
	}
	// The clean package stays clean, and the cold helper package's
	// direct draw is below detflow's radar: the taint surfaces in the
	// dock fixture instead.
	want := map[string]map[string]int{
		"sick": {"discarderr": 1, "floatcmp": 1},
		// Three direct sources (Jitter, Stamp, PoolGlobalRand) plus two
		// tainted calls (noise.Wall, typeNames).
		"dock": {"detflow": 5},
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("findings per fixture and analyzer = %v, want %v", got, want)
	}
	// Diagnostics must carry exact positions into the fixture files.
	for _, d := range diags {
		if d.Pos.Line == 0 || d.Pos.Filename == "" {
			t.Errorf("diagnostic without position: %+v", d)
		}
	}
}

// TestConcurrentRuns runs two lint.Run calls at once, as two scilint
// invocations embedded in one process would. Each Run keeps its call
// graph and taint state to itself, so under -race this fails on
// any state shared between Runs, and each must report what it reports
// alone.
func TestConcurrentRuns(t *testing.T) {
	const src = `package p

import "math/rand"

func jitter() float64 {
	return rand.Float64()
}

func Search() float64 {
	return jitter()
}
`
	modDir, modPath, goVersion, err := findModule(".")
	if err != nil {
		t.Fatalf("findModule: %v", err)
	}
	var pkgs []*Package
	for _, path := range []string{"repro/internal/dock/fixture", "repro/internal/engine/fixture"} {
		// A loader each: a shared FileSet's internal locking would order
		// the two Runs' accesses and hide a race between them.
		ld := newLoader(modDir, modPath, goVersion)
		f, err := parser.ParseFile(ld.fset, "fixture.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture: %v", err)
		}
		pkg, err := ld.check(path, []*ast.File{f})
		if err != nil {
			t.Fatalf("check fixture: %v", err)
		}
		pkgs = append(pkgs, pkg)
	}
	results := make([][]Diagnostic, len(pkgs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, pkg := range pkgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			results[i] = Run([]*Package{pkg}, Analyzers())
		}()
	}
	close(start)
	wg.Wait()
	for i, pkg := range pkgs {
		alone := Run([]*Package{pkg}, Analyzers())
		if len(alone) != 2 {
			t.Errorf("%s: %d findings alone, want the draw and the tainted call: %v", pkg.Path, len(alone), alone)
		}
		if fmt.Sprint(results[i]) != fmt.Sprint(alone) {
			t.Errorf("%s: concurrent Run = %v, alone = %v", pkg.Path, results[i], alone)
		}
	}
}
