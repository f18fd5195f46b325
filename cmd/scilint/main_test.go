package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

const (
	sickPkg       = "../../internal/lint/testdata/src/sick"
	dockPkg       = "../../internal/lint/testdata/src/internal/dock"
	noisePkg      = "../../internal/lint/testdata/src/noise"
	cleanPkg      = "../../internal/lint/testdata/src/clean"
	workerLoopPkg = "../../internal/lint/testdata/src/workerloop"
)

// sixAnalyzers is the registry, in -list order.
var sixAnalyzers = []string{"ctxleak", "detflow", "discarderr", "floatcmp", "lockflow", "provpair"}

// findingRE matches one text finding line: file:line:col: analyzer: message.
var findingRE = regexp.MustCompile(`^\S+\.go:\d+:\d+: ([a-z]+): `)

// exec runs the driver in-process and returns (exit, stdout, stderr).
func exec(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestSickFixtureFailsTheGate(t *testing.T) {
	code, out, errOut := exec(t, sickPkg, dockPkg, noisePkg)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (error findings present); stderr: %s", code, errOut)
	}
	// Every finding line leads with file:line:col into a fixture file,
	// and the fixtures trip exactly the six analyzers.
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "scilint: ") {
			continue
		}
		m := findingRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("finding line without file:line:col: analyzer: prefix: %q", line)
			continue
		}
		seen[m[1]] = true
	}
	var names []string
	for an := range seen {
		names = append(names, an)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(sixAnalyzers) {
		t.Errorf("analyzers with findings = %v, want %v:\n%s", names, sixAnalyzers, out)
	}
	if !strings.Contains(out, "scilint: 17 finding(s):") {
		t.Errorf("output missing the 17-finding summary line:\n%s", out)
	}
	// The provenance-store patterns: a snapshot RLock leaked on an early
	// return, a flush that blocks on a channel inside the critical
	// section, an unstoppable worker, and a cross-package
	// nondeterminism chain.
	for _, msg := range []string{
		"t.mu.RLock() acquired at",
		"is still held when this path returns",
		"channel send while t.mu is held",
		"infinite worker loop with no shutdown path",
		"which draws from the math/rand global source",
	} {
		if !strings.Contains(out, msg) {
			t.Errorf("output missing %q finding:\n%s", msg, out)
		}
	}
}

// TestWorkerLoopAloneFailsTheGate pins the single severity: a ctxleak
// worker-loop finding is the fixture's only one and still exits 1.
func TestWorkerLoopAloneFailsTheGate(t *testing.T) {
	code, out, errOut := exec(t, workerLoopPkg)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout: %s stderr: %s", code, out, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], " ctxleak: infinite worker loop with no shutdown path") ||
		lines[1] != "scilint: 1 finding(s): ctxleak=1" {
		t.Errorf("want one ctxleak finding and its summary, got:\n%s", out)
	}
}

func TestCleanFixturePasses(t *testing.T) {
	code, out, errOut := exec(t, cleanPkg)
	if code != 0 {
		t.Fatalf("exit = %d, want 0; stdout: %s stderr: %s", code, out, errOut)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("clean fixture produced output:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, errOut := exec(t, "-json", sickPkg)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errOut)
	}
	var diags []struct {
		Analyzer string `json:"analyzer"`
		Pos      struct {
			Filename string `json:"Filename"`
			Line     int    `json:"Line"`
		} `json:"position"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, out)
	}
	if len(diags) == 0 {
		t.Fatal("-json output is empty for the sick fixture")
	}
	for _, d := range diags {
		if d.Analyzer == "" || d.Message == "" || d.Pos.Line == 0 {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}

func TestListAnalyzers(t *testing.T) {
	code, out, _ := exec(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if fmt.Sprint(names) != fmt.Sprint(sixAnalyzers) {
		t.Errorf("-list names %v, want %v:\n%s", names, sixAnalyzers, out)
	}
}

// TestFullModuleRuntimeBudget pins the end-to-end cost of the gate's
// `scilint ./...` stage: load + type-check the whole module, build the
// call graph and CFGs, run all six analyzers. The bound is generous
// (CI machines vary) but catches superlinear regressions in the flow
// engine — before the fixpoint iteration was capped, a pathological
// merge could spin for minutes.
func TestFullModuleRuntimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module lint run in -short mode")
	}
	const budget = 90 * time.Second
	start := time.Now()
	code, out, errOut := exec(t, "./...")
	elapsed := time.Since(start)
	if code != 0 {
		t.Fatalf("scilint ./... exit = %d\nstdout: %s\nstderr: %s", code, out, errOut)
	}
	if elapsed > budget {
		t.Errorf("scilint ./... took %v, budget %v", elapsed, budget)
	}
	t.Logf("scilint ./... completed in %v (budget %v)", elapsed, budget)
}

func TestUnknownPackagePattern(t *testing.T) {
	code, _, errOut := exec(t, "no/such/dir")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 for unresolvable pattern; stderr: %s", code, errOut)
	}
	if strings.TrimSpace(errOut) == "" {
		t.Error("load failure produced no stderr diagnostics")
	}
}
