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

// registry is the analyzer set, in -list order.
var registry = []string{"detflow", "discarderr", "floatcmp"}

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
	// and the fixtures trip every analyzer.
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
	if fmt.Sprint(names) != fmt.Sprint(registry) {
		t.Errorf("analyzers with findings = %v, want %v:\n%s", names, registry, out)
	}
	if !strings.Contains(out, "scilint: 7 finding(s): detflow=5 discarderr=1 floatcmp=1") {
		t.Errorf("output missing the 7-finding summary line:\n%s", out)
	}
	// An exact float comparison, a dropped parse error, and a
	// cross-package nondeterminism chain.
	for _, msg := range []string{
		"exact floating-point == comparison",
		"error value discarded with blank identifier",
		"which draws from the math/rand global source",
	} {
		if !strings.Contains(out, msg) {
			t.Errorf("output missing %q finding:\n%s", msg, out)
		}
	}
}

// TestWorkerLoopAloneFailsTheGate pins the single severity: a worker
// loop's discarded error is the fixture's only finding and still
// exits 1.
func TestWorkerLoopAloneFailsTheGate(t *testing.T) {
	code, out, errOut := exec(t, workerLoopPkg)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stdout: %s stderr: %s", code, out, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], " discarderr: error value discarded with blank identifier") ||
		lines[1] != "scilint: 1 finding(s): discarderr=1" {
		t.Errorf("want one discarderr finding and its summary, got:\n%s", out)
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
	if fmt.Sprint(names) != fmt.Sprint(registry) {
		t.Errorf("-list names %v, want %v:\n%s", names, registry, out)
	}
}

// TestFullModuleRuntimeBudget pins the end-to-end cost of the gate's
// `scilint ./...` stage: load + type-check the whole module, build the
// call graph, run every analyzer. The bound is generous (CI machines
// vary) but catches superlinear regressions in the loader or in
// detflow's interprocedural taint.
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
