package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"regexp"
	"strings"
	"testing"
)

// checkFixture type-checks one in-memory fixture file as package
// `path` (which controls path-sensitive analyzers like wildrand).
// Loaders are shared per go version so the standard-library closure is
// type-checked once per test binary, not once per case.
var testLoaders = map[string]*loader{}

func checkFixture(t *testing.T, path, goVersion, filename, src string) *Package {
	t.Helper()
	ld := testLoaders[goVersion]
	if ld == nil {
		modDir, modPath, modGo, err := findModule(".")
		if err != nil {
			t.Fatalf("findModule: %v", err)
		}
		if goVersion == "" {
			goVersion = modGo
		}
		ld = newLoader(modDir, modPath, goVersion)
		testLoaders[goVersion] = ld
		testLoaders[""] = ld // default alias on first use
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
func runCase(t *testing.T, an *Analyzer, path, goVersion, filename, src string) {
	t.Helper()
	pkg := checkFixture(t, path, goVersion, filename, src)
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
			runCase(t, FloatCmp, "fixture/floatcmp", "", "fixture.go", tc.src)
		})
	}
}

func TestExactFlow(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"flags_narrowing_and_arithmetic", `package p

//exact: bit-identical to the reference path
func scoreExact(xs []float64, acc []float32) float64 {
	v := float32(xs[0]) // want "float32 conversion inside //exact: function"
	w := acc[0] * acc[1] // want "float32 \* arithmetic inside //exact: function"
	acc[0] += w // want "float32 \+= inside //exact: function"
	return float64(v)
}
`},
		{"gofmt_spelling_still_checked", `package p

// exact: bit-identical to the reference path
func scoreExact(xs []float64) float64 {
	return float64(float32(xs[0])) // want "float32 conversion inside //exact: function"
}
`},
		{"widening_and_plain_float64_exempt", `package p

//exact: bit-identical to the reference path
func scoreExact(xs []float32) float64 {
	s := 0.0
	for _, x := range xs {
		s += float64(x) // widening: exempt
	}
	return s * 0.5
}

func scoreFast(xs []float64) float32 { // no directive: exempt
	return float32(xs[0]) * 0.5
}
`},
		{"float32_to_float32_exempt", `package p

type affinity float32

//exact: node passthrough
func reslot(v float32) affinity {
	return affinity(v) // float32-based to float32-based: no narrowing
}
`},
		{"suppression", `package p

//exact: bit-identical modulo the documented seed fold
func fold(v float64) float32 {
	//lint:ignore exactflow the fold is part of the pinned contract
	return float32(v)
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runCase(t, ExactFlow, "fixture/exactflow", "", "fixture.go", tc.src)
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
			runCase(t, DiscardErr, "fixture/discarderr", "", tc.file, tc.src)
		})
	}
}

func TestMutexHeld(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"copy_by_value", `package p

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func byValue(mu sync.Mutex) { mu.Lock() } // want "passes lock by value"

func (g guarded) byValRecv() int { return g.n } // want "passes lock by value"

func copies(g *guarded) {
	cp := *g // want "assignment copies lock value"
	_ = cp
}

func ranges(gs []guarded) {
	for _, g := range gs { // want "range copies lock"
		_ = g.n
	}
}
`},
		{"lock_without_unlock", `package p

import "sync"

var mu sync.Mutex

func leaks() {
	mu.Lock() // want "no matching unlock"
}

func ok() {
	mu.Lock()
	defer mu.Unlock()
}

func okInline() {
	mu.Lock()
	mu.Unlock()
}
`},
		{"blocking_while_held", `package p

import (
	"sync"
	"time"
)

var (
	mu sync.Mutex
	ch = make(chan int)
	wg sync.WaitGroup
)

func sends() {
	mu.Lock()
	ch <- 1 // want "channel send while mu is held"
	mu.Unlock()
}

func sleeps() {
	mu.Lock()
	defer mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while mu is held"
}

func waits() {
	mu.Lock()
	wg.Wait() // want "WaitGroup.Wait while mu is held"
	mu.Unlock()
}

func relocks() {
	mu.Lock()
	mu.Lock() // want "re-locked while already held"
	mu.Unlock()
}
`},
		{"cond_wait_exempt", `package p

import "sync"

type box struct {
	mu   sync.Mutex
	cond *sync.Cond
	full bool
}

func (b *box) waitFull() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.full {
		b.cond.Wait() // sync.Cond.Wait: exempt by design
	}
}

func (b *box) signalAfter() {
	b.mu.Lock()
	b.full = true
	b.cond.Broadcast()
	b.mu.Unlock()
	b.cond.Signal()
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runCase(t, MutexHeld, "fixture/mutexheld", "", "fixture.go", tc.src)
		})
	}
}

func TestWildRand(t *testing.T) {
	hotSrc := `package p

import (
	"math/rand"
	"time"
)

func roll() int {
	return rand.Intn(6) // want "math/rand global source call rand.Intn"
}

func stamp() time.Time {
	return time.Now() // want "in deterministic hot path"
}

func seeded(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // constructors: exempt
	return r.Float64()                  // method on injected source: exempt
}

func elapsed(d time.Duration) time.Duration { return d * 2 }
`
	t.Run("hot_path_flags", func(t *testing.T) {
		runCase(t, WildRand, "repro/internal/dock/fixture", "", "fixture.go", hotSrc)
	})
	t.Run("cold_path_exempt", func(t *testing.T) {
		cold := strings.ReplaceAll(hotSrc, `// want "math/rand global source call rand.Intn"`, "")
		cold = strings.ReplaceAll(cold, `// want "in deterministic hot path"`, "")
		runCase(t, WildRand, "repro/internal/analysis/fixture", "", "fixture.go", cold)
	})
	// Regression guard for the parallel search pools: per-worker seeded
	// sources must stay clean, while a global draw inside a pooled
	// goroutine is flagged.
	poolSrc := `package p

import (
	"math/rand"
	"sync"
)

func searchChains(seed int64, chains, workers int) []float64 {
	out := make([]float64, chains)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < chains; c += workers {
				r := rand.New(rand.NewSource(seed + int64(c)*104729)) // per-chain source: exempt
				out[c] = r.Float64()
			}
		}(w)
	}
	wg.Wait()
	return out
}

func jitteredChains(chains int) []float64 {
	out := make([]float64, chains)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := w; c < chains; c += 2 {
				out[c] = rand.Float64() // want "math/rand global source call rand.Float64"
			}
		}(w)
	}
	wg.Wait()
	return out
}
`
	t.Run("worker_pool", func(t *testing.T) {
		runCase(t, WildRand, "repro/internal/dock/fixture", "", "fixture.go", poolSrc)
	})
	// The engine's dataflow dispatcher is a hot path: its virtual
	// clocks come from placements, never the wall clock, and any
	// per-activation randomness must flow through a seeded source
	// keyed on the tuple. Both wall-clock reads and global draws
	// inside the dispatch loop are flagged.
	dispatcherSrc := `package p

import (
	"math/rand"
	"time"
)

type node struct{ readyAt, planCost float64 }

func dispatch(ready []*node, seed int64) float64 {
	frontier := 0.0
	for _, n := range ready {
		r := rand.New(rand.NewSource(seed ^ int64(len(ready)))) // injected source: exempt
		jitter := r.Float64() * 0

		end := n.readyAt + n.planCost + jitter
		if end > frontier {
			frontier = end
		}
	}
	return frontier
}

func dispatchWall(ready []*node) float64 {
	frontier := 0.0
	for _, n := range ready {
		now := float64(time.Now().UnixNano()) // want "in deterministic hot path"
		tie := rand.Float64()                 // want "math/rand global source call rand.Float64"
		end := now + n.planCost + tie
		if end > frontier {
			frontier = end
		}
	}
	return frontier
}
`
	t.Run("engine_dispatcher", func(t *testing.T) {
		runCase(t, WildRand, "repro/internal/engine/fixture", "", "fixture.go", dispatcherSrc)
	})
}

func TestProvPair(t *testing.T) {
	const header = `package p

import (
	"time"

	"repro/internal/prov"
)
`
	cases := []struct {
		name, body string
	}{
		{"never_closed", `
func leak(db *prov.DB, now time.Time) {
	db.BeginActivation(1, 1, 1, now, "vm", "cmd") // want "not closed on every path"
}
`},
		{"early_return_leaks", `
func leakOnPath(db *prov.DB, now time.Time, bad bool) error {
	if err := db.BeginActivation(1, 1, 1, now, "vm", "cmd"); err != nil {
		return err // start failed: no activation to close
	}
	if bad {
		return nil // want "return leaves provenance activation open"
	}
	return db.CloseActivation(1, prov.StatusFinished, now, 0)
}
`},
		{"running_insert_is_a_start", `
func viaInsert(db *prov.DB, now time.Time) {
	db.InsertActivation(1, 1, 1, prov.StatusRunning, now, now, "vm", 0, "cmd") // want "not closed on every path"
}
`},
		{"deferred_close_ok", `
func deferred(db *prov.DB, now time.Time) error {
	if err := db.BeginActivation(1, 1, 1, now, "vm", "cmd"); err != nil {
		return err
	}
	defer db.CloseActivation(1, prov.StatusFinished, now, 0)
	return nil
}
`},
		{"all_paths_close_ok", `
func branches(db *prov.DB, now time.Time, failed bool) error {
	if err := db.BeginActivation(1, 1, 1, now, "vm", "cmd"); err != nil {
		return err
	}
	if failed {
		return db.CloseActivation(1, prov.StatusFailed, now, 1)
	}
	return db.CloseActivation(1, prov.StatusFinished, now, 0)
}
`},
		{"terminal_insert_not_a_start", `
func terminal(db *prov.DB, now time.Time) error {
	return db.InsertActivation(1, 1, 1, prov.StatusAborted, now, now, "-", 0, "cmd")
}
`},
		// The dataflow dispatcher's place() shape: one switch clause
		// begins and closes its own activation and returns; the code
		// after the switch has error returns before its own begin.
		// Neither must be flagged — a clause that closed (or reported
		// at its own return) cannot leak past the switch.
		{"switch_clause_closes_then_fallthrough", `
func outcome(db *prov.DB, now time.Time, kind int, stage func() error) error {
	switch {
	case kind == 1:
		if err := db.BeginActivation(1, 1, 1, now, "vm", "cmd"); err != nil {
			return err
		}
		return db.CloseActivation(1, prov.StatusAborted, now, 0)
	case kind == 2:
		return db.InsertActivation(1, 1, 1, prov.StatusFailed, now, now, "-", 0, "cmd")
	}
	if err := stage(); err != nil {
		return err // pre-begin error path: nothing open yet
	}
	if err := db.BeginActivation(2, 1, 1, now, "vm", "cmd"); err != nil {
		return err
	}
	return db.CloseActivation(2, prov.StatusFinished, now, 0)
}
`},
		{"switch_clause_leaks_to_fallthrough", `
func leakySwitch(db *prov.DB, now time.Time, kind int) error {
	switch {
	case kind == 1:
		if err := db.BeginActivation(1, 1, 1, now, "vm", "cmd"); err != nil {
			return err
		}
	}
	return nil // want "return leaves provenance activation open"
}
`},
		{"err_var_guard_exempt", `
func assigned(db *prov.DB, now time.Time) error {
	err := db.BeginActivation(1, 1, 1, now, "vm", "cmd")
	if err != nil {
		return err // start failed: exempt path
	}
	return db.CloseActivation(1, prov.StatusFinished, now, 0)
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runCase(t, ProvPair, "fixture/provpair", "", "fixture.go", header+tc.body)
		})
	}
}

func TestCtxLeak(t *testing.T) {
	cases := []struct {
		name, goVersion, src string
	}{
		{"unstoppable_loop", "", `package p

func work() {}

func spawn() {
	go func() {
		for { // want "infinite worker loop with no shutdown path"
			work()
		}
	}()
}
`},
		{"shutdown_paths_ok", "", `package p

func work() {}

func spawnSelect(done chan struct{}) {
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				work()
			}
		}
	}()
}

func spawnRecv(jobs chan int) {
	go func() {
		for {
			j, ok := <-jobs
			if !ok {
				return
			}
			_ = j
		}
	}()
}

func spawnRange(jobs chan int) {
	go func() {
		for j := range jobs {
			_ = j
		}
	}()
}
`},
		// The dataflow dispatcher's worker shape: a cond-wait loop that
		// re-checks a shutdown flag and returns. The outer for {} is
		// clean (return path); the inner cond-guarded for has a
		// condition and is never a worker loop. A cond.Wait spin with
		// no shutdown check stays flagged — sync.Cond.Wait alone is
		// not an exit.
		{"dispatcher_worker", "", `package p

import "sync"

type dispatcher struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []int
	shutdown bool
}

func runJob(int) {}

func (d *dispatcher) pool(n int) {
	for i := 0; i < n; i++ {
		go func() {
			d.mu.Lock()
			defer d.mu.Unlock()
			for {
				for len(d.queue) == 0 && !d.shutdown {
					d.cond.Wait()
				}
				if d.shutdown {
					return
				}
				job := d.queue[0]
				d.queue = d.queue[1:]
				d.mu.Unlock()
				runJob(job)
				d.mu.Lock()
			}
		}()
	}
}

func (d *dispatcher) spin() {
	go func() {
		d.mu.Lock()
		defer d.mu.Unlock()
		for { // want "infinite worker loop with no shutdown path"
			d.cond.Wait()
		}
	}()
}
`},
		{"loopvar_pre122", "go1.21", `package p

func use(int) {}

func fan(xs []int) {
	for _, x := range xs {
		go func() {
			use(x) // want "goroutine captures loop variable x"
		}()
	}
}

func byArg(xs []int) {
	for _, x := range xs {
		go func(x int) {
			use(x) // passed as argument: exempt
		}(x)
	}
}
`},
		{"loopvar_go122_exempt", "go1.22", `package p

func use(int) {}

func fan(xs []int) {
	for _, x := range xs {
		go func() {
			use(x) // per-iteration variable since 1.22: exempt
		}()
	}
}
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runCase(t, CtxLeak, "fixture/ctxleak", tc.goVersion, "fixture.go", tc.src)
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
	want := []string{"ctxleak", "detflow", "dimcheck", "discarderr", "exactflow", "floatcmp", "lockflow", "mutexheld", "provpair", "wildrand"}
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
// through Load (the same path cmd/scilint uses) and checks the seeded
// findings surface and the clean package stays clean.
func TestFixturePackages(t *testing.T) {
	pkgs, err := Load(LoadConfig{IncludeTests: true},
		"testdata/src/sick", "testdata/src/internal/dock",
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

	perPkg := map[string]map[string]int{}
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
		if perPkg[key] == nil {
			perPkg[key] = map[string]int{}
		}
		perPkg[key][d.Analyzer]++
	}
	if len(perPkg["clean"]) != 0 {
		t.Errorf("clean fixture produced findings: %v", perPkg["clean"])
	}
	// The cold helper package's direct draw is deliberately below every
	// analyzer's radar; the taint surfaces in the dock fixture instead.
	if len(perPkg["noise"]) != 0 {
		t.Errorf("noise fixture produced findings: %v", perPkg["noise"])
	}
	for _, an := range []string{"floatcmp", "exactflow", "discarderr", "mutexheld", "provpair", "ctxleak", "lockflow", "dimcheck"} {
		if perPkg["sick"][an] == 0 {
			t.Errorf("sick fixture produced no %s finding; got %v", an, perPkg["sick"])
		}
	}
	// Two from ScoreWindowExact (//exact:), one from ScorePoseExact
	// (// exact:, the spelling gofmt rewrites the directive to).
	if got := perPkg["sick"]["exactflow"]; got != 3 {
		t.Errorf("sick fixture produced %d exactflow findings, want 3", got)
	}
	for _, an := range []string{"wildrand", "detflow"} {
		if perPkg["dock"][an] == 0 {
			t.Errorf("dock fixture produced no %s finding; got %v", an, perPkg["dock"])
		}
	}
	// Diagnostics must carry exact positions into the fixture files.
	for _, d := range diags {
		if d.Pos.Line == 0 || d.Pos.Filename == "" {
			t.Errorf("diagnostic without position: %+v", d)
		}
	}
	_ = fmt.Sprintf // keep fmt for future debugging tweaks
}
