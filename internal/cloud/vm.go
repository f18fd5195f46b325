// Package cloud simulates the Amazon EC2 virtual cluster of the
// paper's deployment: the m3 instance catalog (Table 1), VM
// acquisition with boot latency, per-VM performance heterogeneity and
// virtualization fluctuations, and hourly cost accounting. The
// cluster keeps a monotone virtual clock in seconds, which its user
// advances, so multi-day workflow executions replay in milliseconds
// of wall time.
package cloud

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// InstanceType describes one EC2 offering (Table 1 of the paper).
type InstanceType struct {
	Name      string
	Cores     int
	Processor string
	SpeedGHz  float64 // nominal per-core speed factor (1.0 = reference core)
	HourlyUSD float64
	BootSecs  float64 // acquisition-to-ready latency
}

// The m3 instance catalog used by the paper's experiments.
var (
	M3XLarge = InstanceType{
		Name: "m3.xlarge", Cores: 4, Processor: "Intel Xeon E5-2670",
		SpeedGHz: 1.0, HourlyUSD: 0.450, BootSecs: 95,
	}
	M32XLarge = InstanceType{
		Name: "m3.2xlarge", Cores: 8, Processor: "Intel Xeon E5-2670",
		SpeedGHz: 1.0, HourlyUSD: 0.900, BootSecs: 110,
	}
)

// Catalog lists the available instance types.
func Catalog() []InstanceType { return []InstanceType{M3XLarge, M32XLarge} }

// VM is one acquired virtual machine.
type VM struct {
	ID        string
	Type      InstanceType
	BootAt    float64 // virtual time acquisition was requested
	ReadyAt   float64 // BootAt + boot latency
	StopAt    float64 // math.Inf(1) while running
	baseSpeed float64 // per-VM heterogeneity factor, deterministic from ID
}

// Running reports whether the VM is still leased.
func (vm *VM) Running() bool { return math.IsInf(vm.StopAt, 1) }

// Speed returns the effective speed multiplier at virtual time t:
// the nominal speed scaled by the VM's placement heterogeneity and a
// slowly varying virtualization fluctuation (the cloud performance
// noise §V.C discusses). Deterministic in (ID, t).
func (vm *VM) Speed(t float64) float64 {
	// Fluctuation: ±6% sinusoid with a VM-specific phase plus ±4%
	// hash noise over 10-minute buckets.
	phase := float64(hash32(vm.ID)) / float64(math.MaxUint32) * 2 * math.Pi
	slow := 0.06 * math.Sin(2*math.Pi*t/3600+phase)
	bucket := int64(t / 600)
	jitter := (float64(hash32(fmt.Sprintf("%s|%d", vm.ID, bucket)))/float64(math.MaxUint32) - 0.5) * 0.08
	s := vm.Type.SpeedGHz * vm.baseSpeed * (1 + slow + jitter)
	if s < 0.1 {
		s = 0.1
	}
	return s
}

func hash32(s string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return h.Sum32()
}

// Cluster manages VM leases against its virtual clock and accumulates
// the bill.
type Cluster struct {
	now    float64
	vms    map[string]*VM
	nextID int
}

// NewCluster returns an empty cluster at virtual time zero.
func NewCluster() *Cluster {
	return &Cluster{vms: make(map[string]*VM)}
}

// Now returns the current virtual time in seconds.
func (c *Cluster) Now() float64 { return c.now }

// AdvanceTo moves the virtual clock forward to t; a t at or before the
// current time leaves it where it is.
func (c *Cluster) AdvanceTo(t float64) {
	if t > c.now {
		c.now = t
	}
}

// Acquire leases a new VM of the given type at the current virtual
// time. The returned VM becomes usable at ReadyAt (boot latency).
func (c *Cluster) Acquire(t InstanceType) *VM {
	c.nextID++
	vm := &VM{
		ID:      fmt.Sprintf("i-%s-%04d", t.Name, c.nextID),
		Type:    t,
		BootAt:  c.now,
		ReadyAt: c.now + t.BootSecs,
		StopAt:  math.Inf(1),
	}
	// Placement heterogeneity: ±10% deterministic per VM id.
	vm.baseSpeed = 0.9 + 0.2*float64(hash32(vm.ID))/float64(math.MaxUint32)
	c.vms[vm.ID] = vm
	return vm
}

// Release terminates a lease at the current virtual time.
func (c *Cluster) Release(id string) error {
	vm, ok := c.vms[id]
	if !ok {
		return fmt.Errorf("cloud: unknown VM %q", id)
	}
	if !vm.Running() {
		return fmt.Errorf("cloud: VM %q already released", id)
	}
	vm.StopAt = c.now
	return nil
}

// VMs returns all leased VMs (running and stopped) sorted by ID.
func (c *Cluster) VMs() []*VM {
	out := make([]*VM, 0, len(c.vms))
	for _, vm := range c.vms {
		out = append(out, vm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunningVMs returns only active leases.
func (c *Cluster) RunningVMs() []*VM {
	var out []*VM
	for _, vm := range c.VMs() {
		if vm.Running() {
			out = append(out, vm)
		}
	}
	return out
}

// Cost returns the accumulated bill in USD: EC2 bills whole hours per
// VM, rounded up, from acquisition to release (or the current time for
// running VMs).
func (c *Cluster) Cost() float64 {
	var usd float64
	for _, vm := range c.vms {
		end := vm.StopAt
		if vm.Running() {
			end = c.now
		}
		up := end - vm.BootAt
		if up <= 0 {
			up = 1
		}
		hours := math.Ceil(up / 3600)
		usd += hours * vm.Type.HourlyUSD
	}
	return usd
}

// BuildVirtualCluster acquires the mixed m3.xlarge/m3.2xlarge fleet
// the paper used to reach a given core count: 2xlarge instances first,
// one xlarge for the remainder. It returns the acquired VMs.
func (c *Cluster) BuildVirtualCluster(cores int) ([]*VM, error) {
	if cores < 1 {
		return nil, fmt.Errorf("cloud: core count %d must be positive", cores)
	}
	var out []*VM
	remaining := cores
	for remaining >= M32XLarge.Cores {
		out = append(out, c.Acquire(M32XLarge))
		remaining -= M32XLarge.Cores
	}
	for remaining > 0 {
		out = append(out, c.Acquire(M3XLarge))
		remaining -= M3XLarge.Cores
	}
	return out, nil
}
