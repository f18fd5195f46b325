package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// runRecord is one run of one workload inside a set.
type runRecord struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Checksums map[string]string `json:"checksums"`
	OpMS      []float64         `json:"op_ms"`
	OpCPUMS   []float64         `json:"op_cpu_ms"`
	Result    struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	} `json:"result"`
}

// runSetFile is a set of runs of one commit on one host, the unit
// -compare works on.
type runSetFile struct {
	Host    hostRecord  `json:"host"`
	Seed    int64       `json:"seed"`
	Seconds float64     `json:"seconds"`
	Runs    []runRecord `json:"runs"`
}

// runSet runs each workload `runs` times, every run in a fresh process
// so that peaks and warm caches do not leak between runs, and writes
// the set to path.
func runSet(out io.Writer, o options, runs int, path string) error {
	if path == "" {
		return fmt.Errorf("-runs needs -out")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	defs, _ := definitions(o.smoke)
	set := runSetFile{Host: readHost(), Seed: o.seed, Seconds: o.seconds}
	for _, d := range defs {
		if o.workload != "" && o.workload != d.name {
			continue
		}
		for r := 0; r < runs; r++ {
			seed := o.seed + int64(r)
			args := []string{"-workload", d.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds)}
			if o.trace {
				args = append(args, "-trace", "1")
			}
			if o.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", d.name, seed, err)
			}
			rec, err := parseRun(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", d.name, seed, err)
			}
			rec.Workload, rec.Seed, rec.Trace = d.name, seed, o.trace
			set.Runs = append(set.Runs, rec)
			fmt.Fprintf(out, "%s seed %d: attempted %d failed %d\n", d.name, seed, rec.Result.Attempted, rec.Result.Failed)
		}
	}
	if len(set.Runs) == 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	printSpreads(out, set, o.trace)
	return nil
}

// parseRun reads one run's output: the checksum lines and, last, the
// result line.
func parseRun(stdout []byte) (runRecord, error) {
	rec := runRecord{Checksums: map[string]string{}}
	last := ""
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		f := strings.Fields(last)
		switch {
		case len(f) == 3 && f[0] == "checksum":
			rec.Checksums[f[1]] = f[2]
		case len(f) > 1 && (f[0] == "op_ms" || f[0] == "op_cpu_ms"):
			var xs []float64
			for _, x := range f[1:] {
				if v, err := strconv.ParseFloat(strings.Trim(x, "[]"), 64); err == nil {
					xs = append(xs, v)
				}
			}
			if f[0] == "op_ms" {
				rec.OpMS = xs
			} else {
				rec.OpCPUMS = xs
			}
		}
	}
	if err := json.Unmarshal([]byte(last), &rec.Result); err != nil {
		return rec, fmt.Errorf("result line: %w", err)
	}
	return rec, nil
}

func loadSet(path string) (runSetFile, error) {
	var set runSetFile
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	return set, json.Unmarshal(b, &set)
}

// values returns one metric's value in every run of a workload.
func (s runSetFile) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s.Runs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func (s runSetFile) workloads() []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range s.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			names = append(names, r.Workload)
		}
	}
	return names
}

// printSpreads shows how steady a set is: per workload and metric the
// median, the quartiles and their distance as a share of the median,
// which must stay inside the metric's bound for the set to resolve a
// regression of that size.
func printSpreads(out io.Writer, set runSetFile, trace bool) {
	decls := endToEnd
	if trace {
		decls = perLayer
	}
	fmt.Fprintf(out, "%-16s %-34s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range set.workloads() {
		for _, d := range decls {
			xs := set.values(w, d.Name)
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(out, "%-16s %-34s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%\n", w, d.Name, q2, q1, q3, 100*spread(xs), 100*d.Bound)
		}
	}
}

// verdict compares metric values of a baseline set a and a candidate
// set b under the metric's bound.
//
//   - unresolved: either set's run-to-run spread exceeds the bound, so a
//     regression of that size cannot be told from noise — unless every
//     run of one set beats every run of the other;
//   - worse: b's median is worse than a's by more than the bound;
//   - better: b wins at least nine tenths of the paired runs and the
//     medians differ by more than a's own interquartile distance;
//   - same: otherwise.
func verdict(d decl, a, b []float64) string {
	sign := 1.0 // positive delta = worse
	if d.Better == "higher" {
		sign = -1
	}
	_, ma, _ := quartiles(a)
	_, mb, _ := quartiles(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return "unresolved"
	}
	delta := sign * (mb - ma) / ma
	sa, sb := sorted(a), sorted(b)
	allBetter := sign*(sb[len(sb)-1]-sa[0]) < 0 && sign*(sb[0]-sa[len(sa)-1]) < 0
	allWorse := sign*(sb[0]-sa[len(sa)-1]) > 0 && sign*(sb[len(sb)-1]-sa[0]) > 0
	if spread(a) > d.Bound || spread(b) > d.Bound {
		switch {
		case allBetter:
			return "better"
		case allWorse && delta > d.Bound:
			return "worse"
		}
		return "unresolved"
	}
	if delta > d.Bound {
		return "worse"
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	q1, _, q3 := quartiles(a)
	if delta < 0 && float64(wins) >= 0.9*float64(pairs) && -delta*ma > q3-q1 {
		return "better"
	}
	return "same"
}

// compareSets prints one row per workload and end-to-end metric with
// both sets' medians and quartiles and the verdict, then checks that
// runs of the same workload and seed produced the same result
// checksum. It fails on any worse metric or differing checksum.
func compareSets(out io.Writer, pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "a: %s commit %s (%s, %s)\nb: %s commit %s (%s, %s)\n",
		pathA, a.Host.Commit, a.Host.CPUModel, a.Host.GoVersion, pathB, b.Host.Commit, b.Host.CPUModel, b.Host.GoVersion)
	fmt.Fprintf(out, "%-16s %-16s %11s %23s %11s %23s %7s %6s  %s\n",
		"workload", "metric", "a median", "a quartiles", "b median", "b quartiles", "change", "bound", "verdict")
	bad := 0
	for _, w := range a.workloads() {
		for _, d := range endToEnd {
			xa, xb := a.values(w, d.Name), b.values(w, d.Name)
			a1, am, a3 := quartiles(xa)
			b1, bm, b3 := quartiles(xb)
			v := verdict(d, xa, xb)
			if v == "worse" {
				bad++
			}
			fmt.Fprintf(out, "%-16s %-16s %11.5g %11.5g %11.5g %11.5g %11.5g %11.5g %+6.1f%% %5.0f%%  %s\n",
				w, d.Name, am, a1, a3, bm, b1, b3, 100*(bm-am)/am, 100*d.Bound, v)
		}
	}
	sums := map[string]string{}
	for _, r := range a.Runs {
		sums[fmt.Sprintf("%s/%d", r.Workload, r.Seed)] = r.Checksums["result"]
	}
	same, differ := 0, 0
	for _, r := range b.Runs {
		key := fmt.Sprintf("%s/%d", r.Workload, r.Seed)
		want, ok := sums[key]
		switch {
		case !ok:
		case want == r.Checksums["result"]:
			same++
		default:
			differ++
			fmt.Fprintf(out, "checksum %s differs: %s vs %s\n", key, want, r.Checksums["result"])
		}
	}
	fmt.Fprintf(out, "result checksums of runs with the same workload and seed: %d identical, %d different\n", same, differ)
	if bad > 0 || differ > 0 {
		return fmt.Errorf("%d metrics worse, %d checksums differ", bad, differ)
	}
	return nil
}
