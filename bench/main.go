// Command bench is the repository's performance benchmark: four
// workloads (two whole docks, a command-line campaign, a served
// campaign mix) measured end to end, plus a traced run that attributes
// time to the layers by timing calls into each package's exported API.
// See README.md in this directory.
//
//	go run ./bench -workload dock_ref -seed 2014 -seconds 26 -trace 0
//	go run ./bench -workload served_mixed -trace 1 -trace-out trace.json
//	go run ./bench -runs 10 -out a.json          # a set of runs, every workload
//	go run ./bench -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"
)

// processStart stands in for the process's start: set-up is timed from
// here so that package initialisation and lazy start-up count.
var processStart = time.Now()

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	smoke    bool
}

func main() {
	var o options
	var trace, runs int
	var out string
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: dock_ref, dock_large, screen_adaptive or served_mixed (with -runs: empty = all)")
	flag.Int64Var(&o.seed, "seed", 2014, "workload seed: every generated input derives from it")
	flag.Float64Var(&o.seconds, "seconds", 26, "length of the timed pass")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.traceOut, "trace-out", "", "with -trace 1: write the spans as Chrome trace JSON to this file")
	flag.BoolVar(&o.smoke, "smoke", false, "shrink every workload to a few seconds (checks the harness, not performance)")
	flag.IntVar(&runs, "runs", 0, "run each workload this many times in fresh processes (seeds seed, seed+1, ...) and write the set to -out")
	flag.StringVar(&out, "out", "", "with -runs: file the set of runs is written to")
	flag.BoolVar(&compare, "compare", false, "compare two sets of runs: -compare a.json b.json")
	flag.Parse()
	o.trace = trace != 0

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two set files")
		} else {
			err = compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case runs > 0:
		err = runSet(os.Stdout, o, runs, out)
	default:
		var rep *report
		if rep, err = run(os.Stdout, o); err == nil && rep.failed > 0 {
			err = fmt.Errorf("%d of %d operations and checks failed", rep.failed, rep.attempted)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func findWorkload(name string, smoke bool) (workloadDef, scale, error) {
	defs, sc := definitions(smoke)
	for _, d := range defs {
		if d.name == name {
			return d, sc, nil
		}
	}
	return workloadDef{}, sc, fmt.Errorf("unknown workload %q (valid: dock_ref, dock_large, screen_adaptive, served_mixed)", name)
}

// run executes one workload in this process and prints its metrics;
// the last line is the machine-readable result.
func run(out io.Writer, o options) (*report, error) {
	def, sc, err := findWorkload(o.workload, o.smoke)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	seeds := opSeeds(o.seed)

	// Set up several times and report the median: one set-up is too
	// short to time steadily. The first also pays process start and the
	// cold table caches; the last one is kept for the timed pass.
	var setups []float64
	var w workload
	if o.trace {
		sc.setups = 1 // setup_s is an end-to-end metric; the traced run only needs the state
	}
	for i := 0; i < sc.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if w != nil {
			w.close()
		}
		if w, err = setup(def, seeds, rep, sc); err != nil {
			return nil, fmt.Errorf("set-up of %s: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()
	rep.dist("setup_s", setups)

	seconds := o.seconds
	if o.trace {
		seconds /= 2 // the traced pass and the layer probes take the rest
	}
	p, err := timedPass(w, seconds, def.minOps, o.trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	opMS, cpuMS := make([]float64, len(p.ops)), make([]float64, len(p.ops))
	docks := 0
	var digests []string
	for i, s := range p.ops {
		opMS[i], cpuMS[i] = s.ms, s.cpuMS
		docks += s.docks
		if i < def.minOps {
			digests = append(digests, s.sum)
		}
	}
	// Sorted, so that a dock workload's checksum is the panel's, whatever
	// order the seed put it in.
	slices.Sort(digests)
	sums := fnv.New64a()
	for _, d := range digests {
		fmt.Fprint(sums, d)
	}
	rep.checksums["result"] = fmt.Sprintf("%016x", sums.Sum64())
	wall := p.after.at.Sub(p.before.at).Seconds()
	cpu := p.after.cpu - p.before.cpu
	rep.dist("op_p50_ms", perEntry(opMS, def.panel()))
	rep.dist("op_cpu_p50_ms", perEntry(cpuMS, def.panel()))

	var tr *tracer
	if o.trace {
		tr = newTracer()
		if err := w.layers(tr, p.ops); err != nil {
			return nil, fmt.Errorf("%s layers: %w", def.name, err)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		rep.set("rt.cpu_s", cpu)
		rep.set("rt.cpu_util", cpu/(wall*float64(runtime.NumCPU())))
		rep.set("rt.allocs_per_pair", float64(p.after.mallocs-p.before.mallocs)/float64(docks))
		rep.set("rt.alloc_mb_per_pair", float64(p.after.bytes-p.before.bytes)/float64(docks)/(1<<20))
		rep.set("rt.gc_cpu_frac", ms.GCCPUFraction)
		rep.set("rt.heap_peak_mb", float64(ms.HeapSys)/(1<<20))
		rep.set("parallel.occupancy_mean", p.occupancy)
		if o.traceOut != "" {
			if err := writeTrace(tr, o.traceOut); err != nil {
				return nil, err
			}
		}
	}
	rep.set("peak_rss_mb", p.rssMB)
	rep.set("failed_frac", float64(rep.failed)/float64(rep.attempted))

	host := readHost()
	fmt.Fprintf(out, "workload %s seed %d seconds %g trace %v smoke %v: %d operations, %d docks in %.2f s\n",
		def.name, o.seed, o.seconds, o.trace, o.smoke, len(p.ops), docks, wall)
	fmt.Fprintf(out, "host commit=%s %s GOMAXPROCS=%d nproc=%d cpu=%q caches=%v\n",
		host.Commit, host.GoVersion, host.GOMAXPROCS, host.NumCPU, host.CPUModel, host.Caches)
	fmt.Fprintf(out, "op_ms %.0f\nop_cpu_ms %.0f\n", opMS, cpuMS)
	rep.print(out)
	decls := endToEnd
	if o.trace {
		decls = perLayer
	}
	line, err := rep.resultLine(decls)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return rep, nil
}

// perEntry folds the samples of a pass that cycles through a panel of
// n fixed operations into one value per panel entry, the quickest of
// its repeats: every run then takes its statistics over the same n
// operations, however many cycles it had time for, and a slow phase of
// the host that is shorter than the run touches only the entries that
// had no repeat outside it. Without a panel the samples stand as they
// are.
func perEntry(xs []float64, n int) []float64 {
	if n == 0 || len(xs) < n {
		return xs
	}
	out := slices.Clone(xs[:n])
	for i, x := range xs[n:] {
		out[i%n] = min(out[i%n], x)
	}
	return out
}

func writeTrace(tr *tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// maxOps bounds a pass; opSeeds holds a seed for each operation and a
// few spare ones for warm-ups and probes.
const maxOps = 4000

// pass is what one timed pass measured.
type pass struct {
	ops           []opSample
	before, after usage
	occupancy     float64
	// rssMB is the resident-set peak once the first minOps operations
	// are done: a Manager keeps every finished campaign, so the peak at
	// exit would grow with the number of operations a run had time for.
	rssMB float64
}

// timedPass runs the workload's operations back to back, one in
// flight, for about the given time: it stops before an operation that
// would, at the median pace so far, end further past the mark than it
// starts before it. The first minOps operations always run. A workload
// with a background load (the served query stream) has it running for
// exactly the span of the pass.
func timedPass(w workload, seconds float64, minOps int, sample bool) (pass, error) {
	var p pass
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if bg, ok := w.(interface{ load(<-chan struct{}) }); ok {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bg.load(stop)
		}()
	}
	if sample {
		wg.Add(1)
		go func() {
			defer wg.Done()
			occupancy(stop, &p.occupancy)
		}()
	}
	p.before = readUsage()
	var opMS []float64
	var err error
	for i := 0; i < maxOps; i++ {
		if i >= minOps && time.Since(p.before.at).Seconds()+median(opMS)/2e3 >= seconds {
			break
		}
		var s opSample
		cpu0 := cpuSeconds()
		if s, err = w.op(i); err != nil {
			break
		}
		s.cpuMS = (cpuSeconds() - cpu0) * 1e3
		p.ops = append(p.ops, s)
		opMS = append(opMS, s.ms)
		if len(p.ops) == minOps {
			p.rssMB = peakRSSMB()
		}
	}
	p.after = readUsage()
	close(stop)
	wg.Wait()
	return p, err
}
