package sched

import (
	"fmt"
	"testing"
)

func act(id int64, cost float64) Activation {
	return Activation{ID: id, Tag: "babel", Key: fmt.Sprintf("k%d", id),
		Attempts: []float64{cost}}
}

// TestOnlinePlaceNoCoreOverlapMonotone streams activations with
// advancing ready times through the online greedy scheduler and
// checks the core invariants the dataflow runtime leans on: no two
// placements overlap on a core, and per-core start times are
// monotone (the provenance timestamp contract).
func TestOnlinePlaceNoCoreOverlapMonotone(t *testing.T) {
	vms := fleetVMs(t, 8)
	g := NewGreedy()
	lastEnd := map[string]float64{}
	now := 0.0
	for i := 0; i < 60; i++ {
		p, err := g.Place(now, act(int64(i), float64(3+i%7)), vms)
		if err != nil {
			t.Fatal(err)
		}
		if p.Start < now {
			t.Fatalf("placement %d starts at %.2f before now %.2f", i, p.Start, now)
		}
		core := fmt.Sprintf("%s/%d", p.VMID, p.Core)
		if p.Start < lastEnd[core] {
			t.Fatalf("placement %d overlaps core %s: start %.2f < busy-until %.2f",
				i, core, p.Start, lastEnd[core])
		}
		lastEnd[core] = p.End
		if i%5 == 4 {
			now += 2.5 // ready times advance as upstream work completes
		}
	}
}

// TestOnlineResetForgetsState pins Reset: after it, a fresh identical
// stream must reproduce the same placements.
func TestOnlineResetForgetsState(t *testing.T) {
	vms := fleetVMs(t, 4)
	g := NewGreedy()
	place := func() []Placement {
		var ps []Placement
		for i := 0; i < 10; i++ {
			p, err := g.Place(1.5, act(int64(i), 4), vms)
			if err != nil {
				t.Fatal(err)
			}
			ps = append(ps, p)
		}
		return ps
	}
	first := place()
	g.Reset()
	second := place()
	for i := range first {
		if fmt.Sprint(first[i]) != fmt.Sprint(second[i]) {
			t.Fatalf("placement %d differs after Reset: %+v vs %+v", i, first[i], second[i])
		}
	}
}

// TestOnlineFleetGrowth verifies the scheduler absorbs VMs that join
// mid-run (adaptive elasticity): new cores become usable without
// disturbing the state of existing ones.
func TestOnlineFleetGrowth(t *testing.T) {
	all := fleetVMs(t, 16)
	small, big := all[:1], all
	g := NewGreedy()
	busyUntil := 0.0
	for i := 0; i < 8; i++ {
		p, err := g.Place(0, act(int64(i), 10), small)
		if err != nil {
			t.Fatal(err)
		}
		if busyUntil == 0 || p.End < busyUntil {
			busyUntil = p.End
		}
	}
	// All 8 cores of the first VM are busy; a core of the newly
	// visible VM must pick up before any of them frees.
	p, err := g.Place(0, act(99, 10), big)
	if err != nil {
		t.Fatal(err)
	}
	if p.VMID == small[0].ID {
		t.Errorf("placement stayed on the saturated VM %s", p.VMID)
	}
	if p.Start >= busyUntil {
		t.Errorf("new VM start %.2f does not beat the saturated fleet's %.2f", p.Start, busyUntil)
	}
}

// TestRoundRobinOnline checks arrival-order dealing without cost
// weighting survives the online conversion.
func TestRoundRobinOnline(t *testing.T) {
	vms := fleetVMs(t, 4)
	rr := &RoundRobin{}
	seen := map[string]int{}
	for i := 0; i < 8; i++ {
		p, err := rr.Place(0, act(int64(i), 5), vms)
		if err != nil {
			t.Fatal(err)
		}
		seen[fmt.Sprintf("%s/%d", p.VMID, p.Core)]++
	}
	if len(seen) != 4 {
		t.Fatalf("round robin used %d cores, want 4", len(seen))
	}
	for core, n := range seen {
		if n != 2 {
			t.Errorf("core %s got %d activations, want 2", core, n)
		}
	}
}
