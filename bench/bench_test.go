package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/dock"
)

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 = %v, want 4.8", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Python: statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(40), Parent: 0},        // overlaps b
		{Name: "b", Start: ms(30), End: ms(60), Parent: 0},        // overlaps a
		{Name: "c", Start: ms(70), End: ms(120), Parent: 0},       // runs past the parent
		{Name: "nested", Start: ms(15), End: ms(25), Parent: 1},   // child of a, not of root
		{Name: "orphan", Start: ms(0), End: ms(5), Parent: 99},    // bad parent: ignored
		{Name: "inside-b", Start: ms(35), End: ms(55), Parent: 2}, // covers part of b
	}
	want := []time.Duration{ms(100 - 50 - 30), ms(30 - 10), ms(30 - 20), ms(50), ms(10), ms(5), ms(20)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	tr := newTracer()
	root := tr.begin("pair", -1, 7)
	tr.end(tr.begin("stage", root, 7))
	tr.end(root)
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", -1, 0)) // a nil tracer records nothing
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != 2 {
		t.Fatalf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
}

// A stalled reply must be charged to the ticks queued behind it: they
// are sent late (lag) and their latency counts from when they were due.
func TestPaceChargesStallToLaterTicks(t *testing.T) {
	start := time.Unix(0, 0)
	clock := start
	period := 10 * time.Millisecond
	wait := func(until time.Time) bool {
		if until.After(clock) {
			clock = until
		}
		return clock.Before(start.Add(10 * period))
	}
	do := func(k int) {
		clock = clock.Add(time.Millisecond)
		if k == 2 {
			clock = clock.Add(35 * time.Millisecond) // the reply stalls
		}
	}
	lat, lag := pace(start, period, func() time.Time { return clock }, wait, do)
	if len(lat) != 10 {
		t.Fatalf("%d ticks, want 10", len(lat))
	}
	wantLat := []float64{1, 1, 36, 27, 18, 9, 1, 1, 1, 1}
	wantLag := []float64{0, 0, 0, 26, 17, 8, 0, 0, 0, 0}
	if !reflect.DeepEqual(lat, wantLat) || !reflect.DeepEqual(lag, wantLag) {
		t.Errorf("lat = %v, want %v\nlag = %v, want %v", lat, wantLat, lag, wantLag)
	}
	if p95 := percentile(lag, 95); p95 < 17 {
		t.Errorf("gen lag p95 = %v, the stall is invisible", p95)
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	if !reflect.DeepEqual(opSeeds(7), opSeeds(7)) {
		t.Error("opSeeds differs between two calls with one seed")
	}
	if reflect.DeepEqual(opSeeds(7), opSeeds(8)) {
		t.Error("opSeeds ignores the seed")
	}
	defs, _ := definitions(true)
	in := generatePair(defs[0].pair)
	p, err := in.prepare()
	if err != nil {
		t.Fatal(err)
	}
	sumPoses := func(poses []dock.Pose) uint64 {
		return resultSum(&dock.Result{Runs: func() (rs []dock.RunResult) {
			for _, p := range poses {
				rs = append(rs, dock.RunResult{Pose: p})
			}
			return rs
		}()})
	}
	a, b := steadyWindows(p.lig, 120, 7), steadyWindows(p.lig, 120, 7)
	if sumPoses(a) != sumPoses(b) {
		t.Error("kernel population differs between two calls with one seed")
	}
	if sumPoses(a) == sumPoses(steadyWindows(p.lig, 120, 8)) {
		t.Error("kernel population ignores the seed")
	}
}

func TestDockPanel(t *testing.T) {
	a, b := panelOrder(opSeeds(7), dockPanel), panelOrder(opSeeds(8), dockPanel)
	if !reflect.DeepEqual(a, panelOrder(opSeeds(7), dockPanel)) {
		t.Error("panel order differs between two calls with one seed")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("panel order ignores the seed")
	}
	sorted := func(xs []int64) []int64 {
		xs = append([]int64(nil), xs...)
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return xs
	}
	if !reflect.DeepEqual(sorted(a), sorted(b)) {
		t.Errorf("two seeds dock different panels: %v and %v", a, b)
	}

	// Three entries, two and a half cycles: each entry at its quickest.
	got := perEntry([]float64{30, 10, 20, 28, 14, 19, 33, 9}, 3)
	if want := []float64{28, 9, 19}; !reflect.DeepEqual(got, want) {
		t.Errorf("perEntry = %v, want %v", got, want)
	}
	xs := []float64{3, 1, 2}
	if got := perEntry(xs, 0); !reflect.DeepEqual(got, xs) {
		t.Errorf("perEntry without a panel = %v, want the samples", got)
	}
}

func TestVerdict(t *testing.T) {
	d := decl{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 70, 130, 100, 95, 105, 60}
	for _, c := range []struct {
		name string
		b    []float64
		want string
	}{
		{"same", shift(1.01), "same"},
		{"worse", shift(1.2), "worse"},
		{"better", shift(0.9), "better"},
		{"unresolved", noisy, "unresolved"},
	} {
		if got := verdict(d, base, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	up := decl{Name: "docks_per_s", Better: "higher", Bound: 0.10}
	if got := verdict(up, base, shift(0.8)); got != "worse" {
		t.Errorf("higher-is-better drop: verdict = %s, want worse", got)
	}
}

// The smoke scale runs every workload, traced, and the metric names
// each mode prints must be exactly the ones BENCHMARK.json declares.
func TestSmokeMatchesDeclaration(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	defs, _ := definitions(true)
	if len(file.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json declares %d workloads, bench has %d", len(file.Workloads), len(defs))
	}
	for i, d := range endToEnd {
		if i >= len(file.EndToEnd) || file.EndToEnd[i].Name != d.Name || file.EndToEnd[i].Unit != d.Unit ||
			file.EndToEnd[i].Better != d.Better || file.EndToEnd[i].Bound != d.Bound {
			t.Errorf("end_to_end[%d] in BENCHMARK.json does not match %+v", i, d)
		}
	}
	for i, d := range perLayer {
		if i >= len(file.PerLayer) || file.PerLayer[i].Name != d.Name || file.PerLayer[i].Unit != d.Unit || file.PerLayer[i].Better != d.Better {
			t.Errorf("per_layer[%d] in BENCHMARK.json does not match %+v", i, d)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, bench %d+%d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}

	keys := func(line []byte) []string {
		var res struct {
			Correct bool
			Metrics map[string]json.RawMessage
		}
		if err := json.Unmarshal(line, &res); err != nil || !res.Correct {
			t.Fatalf("result line %s: correct=%v err=%v", line, res.Correct, err)
		}
		var names []string
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		return names
	}
	names := func(ds []decl) []string {
		var out []string
		for _, d := range ds {
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	lastLine := func(out []byte) []byte {
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		return lines[len(lines)-1]
	}
	for i, d := range defs {
		if d.name != file.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, d.name, file.Workloads[i].Name)
		}
		var out bytes.Buffer
		rep, err := run(&out, options{workload: d.name, seed: 2014, seconds: 0.05, trace: true, smoke: true})
		if err != nil {
			t.Fatalf("%s traced: %v\n%s", d.name, err, out.Bytes())
		}
		if rep.failed != 0 {
			t.Errorf("%s traced: %d failures: %v", d.name, rep.failed, rep.failures)
		}
		if got, want := keys(lastLine(out.Bytes())), names(perLayer); !reflect.DeepEqual(got, want) {
			t.Errorf("%s traced prints %v, declared %v", d.name, got, want)
		}
		// The traced run measures the end-to-end set too; the untraced
		// result line is cut from the same report.
		line, err := rep.resultLine(endToEnd)
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if got, want := keys(line), names(endToEnd); !reflect.DeepEqual(got, want) {
			t.Errorf("%s untraced prints %v, declared %v", d.name, got, want)
		}
	}
}
