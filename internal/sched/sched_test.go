package sched

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/cloud"
	"repro/internal/fmath"
)

func TestCostModelDeterministicAndClamped(t *testing.T) {
	cm := NewCostModel()
	for tag, e := range costTable {
		a := cm.Sample(tag, "0E6_2HHN")
		b := cm.Sample(tag, "0E6_2HHN")
		if a != b {
			t.Errorf("%s: sample not deterministic", tag)
		}
		for i := 0; i < 200; i++ {
			v := cm.Sample(tag, fmt.Sprintf("k%d", i))
			if v < e.min-1e-9 || v > e.max+1e-9 {
				t.Errorf("%s: sample %v outside [%v, %v]", tag, v, e.min, e.max)
			}
		}
	}
}

func TestCostModelMeansApproximateCalibration(t *testing.T) {
	cm := NewCostModel()
	for tag, e := range costTable {
		var sum float64
		n := 3000
		for i := 0; i < n; i++ {
			sum += cm.Sample(tag, fmt.Sprintf("pair%d", i))
		}
		avg := sum / float64(n)
		// Clamping biases the mean; allow 30%.
		if avg < e.mean*0.7 || avg > e.mean*1.3 {
			t.Errorf("%s: empirical mean %.2f vs calibrated %.2f", tag, avg, e.mean)
		}
	}
}

func TestCostModelScaleAndUnknown(t *testing.T) {
	cm := NewCostModel()
	if got := cm.Sample("unknown-tag", "x"); got != 1 {
		t.Errorf("unknown tag sample = %v, want 1", got)
	}
	if cm.Mean("unknown") != 0 || cm.Mean(TagBabel) != costTable[TagBabel].mean {
		t.Error("Mean broken")
	}
}

func TestAttemptsFailureStatistics(t *testing.T) {
	cm := NewCostModel()
	fails := 0
	n := 5000
	for i := 0; i < n; i++ {
		at := cm.Attempts(TagDockAD4, fmt.Sprintf("k%d", i), 100)
		if len(at) < 1 {
			t.Fatal("no attempts")
		}
		if at[len(at)-1] != 100 {
			t.Fatal("final attempt must be the full cost")
		}
		if len(at) > 1 {
			fails++
		}
		for _, d := range at[:len(at)-1] {
			if d <= 0 || d >= 100 {
				t.Fatalf("failed attempt duration %v out of range", d)
			}
		}
	}
	rate := float64(fails) / float64(n)
	if rate < 0.07 || rate > 0.13 {
		t.Errorf("failure rate = %.3f, want ~0.10 (paper §IV.B)", rate)
	}
}

// freshDraw is the cost model's draw as first written: FNV-64a of the
// concatenated key seeding a fresh generator. The pooled generators
// must reproduce it bit for bit.
func freshDraw(key string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(key))
	return rand.New(rand.NewSource(int64(h.Sum64() & 0x7fffffffffffffff)))
}

// TestDrawsEqualFreshGenerators pins Sample and Attempts to the
// fresh-generator reference over a fixed corpus of keys, interleaved
// so that every pooled generator is reseeded from another key's state.
func TestDrawsEqualFreshGenerators(t *testing.T) {
	cm := NewCostModel()
	tags := make([]string, 0, len(costTable))
	for tag := range costTable {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	keys := []string{"", "0E6_2HHN", "1k|autodock4|x", "XL1_9XLR"}
	for i := 0; i < 300; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i), fmt.Sprintf("%04d_R%03d", i%42, i))
	}
	for _, tag := range tags {
		e := costTable[tag]
		for _, key := range keys {
			r := freshDraw(tag + "|" + key)
			x := e.mean * fmath.Exp(e.sigma*r.NormFloat64()-e.sigma*e.sigma/2)
			want := math.Min(math.Max(x, e.min), e.max)
			got := cm.Sample(tag, key)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Sample(%s, %q) = %v, fresh generator draws %v", tag, key, got, want)
			}

			r = freshDraw("fail|" + tag + "|" + key)
			var wantAt []float64
			for r.Float64() < FailureRate {
				wantAt = append(wantAt, got*(0.1+0.8*r.Float64()))
				if len(wantAt) >= maxRetries {
					break
				}
			}
			wantAt = append(wantAt, got)
			if gotAt := cm.Attempts(tag, key, got); !slices.Equal(gotAt, wantAt) {
				t.Fatalf("Attempts(%s, %q) = %v, fresh generator draws %v", tag, key, gotAt, wantAt)
			}
		}
	}
}

// TestDrawsConcurrent draws from several goroutines at once, as
// co-resident campaigns do, and requires every draw to equal the
// serial one. Run under -race.
func TestDrawsConcurrent(t *testing.T) {
	cm := NewCostModel()
	const keys = 400
	want := make([]float64, keys)
	for i := range want {
		want[i] = cm.Sample(TagDockVina, fmt.Sprint(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := (i*7 + g*13) % keys
				got := cm.Sample(TagDockVina, fmt.Sprint(k))
				at := cm.Attempts(TagDockVina, fmt.Sprint(k), got)
				if got != want[k] || at[len(at)-1] != got {
					t.Errorf("goroutine %d: draw for key %d = %v (%v), serial %v", g, k, got, at, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDrawsAllocate pins what a draw costs the heap: nothing for
// Sample, the result slice alone for Attempts.
func TestDrawsAllocate(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops pooled generators at random under -race")
	}
	cm := NewCostModel()
	cm.Sample(TagDockAD4, "warm") // the pool's first generator
	if n := testing.AllocsPerRun(200, func() { cm.Sample(TagDockAD4, "0E6_2HHN") }); n != 0 {
		t.Errorf("Sample allocates %v times per call, want 0", n)
	}
	// Some of these keys draw retries: one allocation each, retries or
	// not.
	retried := 0
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("pair%d", i)
		if len(cm.Attempts(TagDockVina, key, 10)) > 1 {
			retried++
		}
		if n := testing.AllocsPerRun(20, func() { cm.Attempts(TagDockVina, key, 10) }); n != 1 {
			t.Errorf("Attempts(%q) allocates %v times per call, want 1 (its result)", key, n)
		}
	}
	if retried == 0 {
		t.Error("no key in the corpus draws a retry")
	}
}

func makeFleet(t *testing.T, cores int) (*cloud.Cluster, []*cloud.VM) {
	t.Helper()
	c := cloud.NewCluster()
	vms, err := c.BuildVirtualCluster(cores)
	if err != nil {
		t.Fatal(err)
	}
	return c, vms
}

func acts(n int, cost float64) []Activation {
	out := make([]Activation, n)
	for i := range out {
		out[i] = Activation{
			ID: int64(i), Tag: TagDockAD4, Key: fmt.Sprintf("a%d", i),
			Attempts: []float64{cost},
		}
	}
	return out
}

// placeStage streams one stage through a scheduler's Place as the
// engine's dispatcher does with equal-ready work: from an idle fleet,
// every activation ready at startAt, heaviest first for the greedy
// (the order the ready queue drains in) and in arrival order otherwise.
// It returns the placements and the makespan measured from startAt.
func placeStage(s Scheduler, startAt float64, stage []Activation, vms []*cloud.VM) ([]Placement, float64, error) {
	s.Reset()
	order := slices.Clone(stage)
	if _, lpt := s.(*Greedy); lpt {
		// Heaviest by reference-core seconds over every attempt plus
		// the staging time.
		cost := func(a Activation) float64 {
			var c float64
			for _, d := range a.Attempts {
				c += d
			}
			return c + a.IOTime
		}
		sort.SliceStable(order, func(i, j int) bool { return cost(order[i]) > cost(order[j]) })
	}
	var placements []Placement
	end := startAt
	for _, a := range order {
		p, err := s.Place(startAt, a, vms)
		if err != nil {
			return nil, 0, err
		}
		end = math.Max(end, p.End)
		placements = append(placements, p)
	}
	return placements, end - startAt, nil
}

func TestGreedyScheduleBasic(t *testing.T) {
	_, vms := makeFleet(t, 8)
	g := NewGreedy()
	placements, makespan, err := placeStage(g, 0, acts(16, 100), vms)
	if err != nil {
		t.Fatal(err)
	}
	if len(placements) != 16 {
		t.Fatalf("placements = %d", len(placements))
	}
	// 16 tasks × 100 s on 8 cores ≈ 2 rounds ≈ 200 s (+boot, jitter).
	if makespan < 180 || makespan > 400 {
		t.Errorf("makespan = %v", makespan)
	}
	// No core overlap.
	type key struct {
		vm   string
		core int
	}
	busy := map[key][]Placement{}
	for _, p := range placements {
		busy[key{p.VMID, p.Core}] = append(busy[key{p.VMID, p.Core}], p)
	}
	for k, ps := range busy {
		for i := 0; i < len(ps); i++ {
			for j := i + 1; j < len(ps); j++ {
				a, b := ps[i], ps[j]
				if a.Start < b.End && b.Start < a.End {
					t.Fatalf("overlap on %v: [%v,%v) and [%v,%v)", k, a.Start, a.End, b.Start, b.End)
				}
			}
		}
	}
}

func TestGreedyLPTBeatsRoundRobinOnSkewedLoad(t *testing.T) {
	// Two heavy + many light tasks: LPT starts the heavy ones first.
	_, vms := makeFleet(t, 8)
	var mixed []Activation
	mixed = append(mixed, Activation{ID: 1, Tag: "x", Key: "h1", Attempts: []float64{1000}})
	mixed = append(mixed, Activation{ID: 2, Tag: "x", Key: "h2", Attempts: []float64{900}})
	for i := 0; i < 40; i++ {
		mixed = append(mixed, Activation{ID: int64(10 + i), Tag: "x", Key: fmt.Sprintf("l%d", i), Attempts: []float64{10}})
	}
	g := &Greedy{MasterDelayPerVM: 0}
	_, gm, err := placeStage(g, 0, mixed, vms)
	if err != nil {
		t.Fatal(err)
	}
	rr := &RoundRobin{}
	_, rm, err := placeStage(rr, 0, mixed, vms)
	if err != nil {
		t.Fatal(err)
	}
	if gm > rm {
		t.Errorf("greedy makespan %v worse than round robin %v", gm, rm)
	}
}

func TestMasterOverheadGrowsWithFleet(t *testing.T) {
	// Many short activations: dispatch serialization dominates on a
	// big fleet — the Figure 9 efficiency-degradation mechanism.
	g := NewGreedy()
	short := acts(2000, 2.0)
	_, small, err := placeStage(g, 0, short, fleetVMs(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	_, big, err := placeStage(g, 0, short, fleetVMs(t, 128))
	if err != nil {
		t.Fatal(err)
	}
	idealSmall := 2000 * 2.0 / 8
	idealBig := 2000 * 2.0 / 128
	effSmall := idealSmall / small
	effBig := idealBig / big
	if effBig >= effSmall {
		t.Errorf("efficiency did not degrade: small=%.2f big=%.2f", effSmall, effBig)
	}
}

func fleetVMs(t *testing.T, cores int) []*cloud.VM {
	t.Helper()
	_, vms := makeFleet(t, cores)
	return vms
}

func TestWorkerCap(t *testing.T) {
	_, vms := makeFleet(t, 2) // leases a 4-core m3.xlarge
	g := NewGreedy()
	g.WorkerCap = 2
	placements, _, err := placeStage(g, 0, acts(8, 50), vms)
	if err != nil {
		t.Fatal(err)
	}
	cores := map[int]bool{}
	for _, p := range placements {
		cores[p.Core] = true
	}
	if len(cores) > 2 {
		t.Errorf("used %d cores despite cap 2", len(cores))
	}
}

func TestScheduleErrors(t *testing.T) {
	g := NewGreedy()
	if _, _, err := placeStage(g, 0, acts(1, 1), nil); err == nil {
		t.Error("empty fleet accepted")
	}
	rr := &RoundRobin{}
	if _, _, err := placeStage(rr, 0, acts(1, 1), nil); err == nil {
		t.Error("empty fleet accepted by round robin")
	}
}

func TestFailuresExtendDuration(t *testing.T) {
	_, vms := makeFleet(t, 4)
	g := &Greedy{MasterDelayPerVM: 0}
	with := []Activation{{ID: 1, Tag: "x", Key: "k", Attempts: []float64{30, 30, 100}}}
	without := []Activation{{ID: 1, Tag: "x", Key: "k", Attempts: []float64{100}}}
	pw, _, _ := placeStage(g, 0, with, vms)
	po, _, _ := placeStage(g, 0, without, vms)
	if pw[0].End-pw[0].Start <= po[0].End-po[0].Start {
		t.Error("failed attempts did not extend execution")
	}
	if pw[0].Failures != 2 || po[0].Failures != 0 {
		t.Errorf("failure counts: %d, %d", pw[0].Failures, po[0].Failures)
	}
}

func TestAdaptivePolicy(t *testing.T) {
	p := NewAdaptivePolicy()
	if got := p.DesiredCores(0); got != p.MinCores {
		t.Errorf("zero work cores = %d", got)
	}
	// 72000 core-seconds at 3600 s target → 20 cores.
	if got := p.DesiredCores(72000); got != 20 {
		t.Errorf("cores = %d, want 20", got)
	}
	// Huge work clamps to max.
	if got := p.DesiredCores(1e9); got != p.MaxCores {
		t.Errorf("cores = %d, want max %d", got, p.MaxCores)
	}
}

func TestAdaptiveResize(t *testing.T) {
	c := cloud.NewCluster()
	p := NewAdaptivePolicy()
	vms, err := p.Resize(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, vm := range vms {
		total += vm.Type.Cores
	}
	if total < 16 {
		t.Errorf("grow: %d cores", total)
	}
	vms, err = p.Resize(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, vm := range vms {
		total += vm.Type.Cores
	}
	if total < 4 || total > 8 {
		t.Errorf("shrink: %d cores", total)
	}
}
