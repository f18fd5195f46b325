package sched

import (
	"math"

	"repro/internal/cloud"
)

// AdaptivePolicy reproduces SciCumulus' adaptive execution: between
// stages it resizes the virtual cluster based on the upcoming load
// profile, acquiring more VMs for compute-intensive stages (e.g.
// docking) and releasing them for light stages — the cloud-elasticity
// feature §IV.B highlights.
type AdaptivePolicy struct {
	// MinCores/MaxCores bound the fleet.
	MinCores int
	MaxCores int
	// TargetStageSeconds is the makespan the policy aims at when
	// sizing the fleet for a stage.
	TargetStageSeconds float64
}

// NewAdaptivePolicy returns a policy with the defaults used by the
// elastic example (fleet between 4 and 128 cores, one-hour stages).
func NewAdaptivePolicy() *AdaptivePolicy {
	return &AdaptivePolicy{MinCores: 4, MaxCores: 128, TargetStageSeconds: 3600}
}

// DesiredCores sizes the fleet for a stage with the given total work
// (reference-core seconds): enough cores to finish near the target
// makespan, clamped to the policy bounds and rounded up to a whole
// m3.xlarge.
func (p *AdaptivePolicy) DesiredCores(stageWork float64) int {
	if stageWork <= 0 {
		return p.MinCores
	}
	target := p.TargetStageSeconds
	if target <= 0 {
		target = 3600
	}
	cores := int(math.Ceil(stageWork / target))
	if cores < p.MinCores {
		cores = p.MinCores
	}
	if p.MaxCores > 0 && cores > p.MaxCores {
		cores = p.MaxCores
	}
	// Round up to a whole smallest instance.
	q := cloud.M3XLarge.Cores
	if rem := cores % q; rem != 0 {
		cores += q - rem
	}
	if p.MaxCores > 0 && cores > p.MaxCores {
		cores = p.MaxCores
	}
	return cores
}

// Resize adjusts the cluster to the desired core count: acquiring
// m3.2xlarge/m3.xlarge VMs to grow, releasing the most recently
// acquired VMs to shrink. It returns the resulting running fleet.
func (p *AdaptivePolicy) Resize(c *cloud.Cluster, desired int) ([]*cloud.VM, error) {
	running := c.RunningVMs()
	have := 0
	for _, vm := range running {
		have += vm.Type.Cores
	}
	switch {
	case have < desired:
		need := desired - have
		for need >= cloud.M32XLarge.Cores {
			c.Acquire(cloud.M32XLarge)
			need -= cloud.M32XLarge.Cores
		}
		for need > 0 {
			c.Acquire(cloud.M3XLarge)
			need -= cloud.M3XLarge.Cores
		}
	case have > desired:
		// Release newest-first until at or just above desired.
		vms := c.RunningVMs()
		for i := len(vms) - 1; i >= 0 && have-vms[i].Type.Cores >= desired; i-- {
			if err := c.Release(vms[i].ID); err != nil {
				return nil, err
			}
			have -= vms[i].Type.Cores
		}
	}
	return c.RunningVMs(), nil
}
