package cloud

import (
	"math"
	"testing"
)

func TestCatalogMatchesTable1(t *testing.T) {
	if M3XLarge.Cores != 4 || M32XLarge.Cores != 8 {
		t.Error("core counts differ from Table 1")
	}
	if M3XLarge.Processor != "Intel Xeon E5-2670" || M32XLarge.Processor != M3XLarge.Processor {
		t.Error("processor differs from Table 1")
	}
	if len(Catalog()) != 2 {
		t.Error("catalog size")
	}
}

func TestAcquireReleaseAndCost(t *testing.T) {
	c := NewCluster()
	vm := c.Acquire(M3XLarge)
	if !vm.Running() {
		t.Error("fresh VM not running")
	}
	if vm.ReadyAt <= vm.BootAt {
		t.Error("no boot latency")
	}
	// Advance 90 minutes, release: billed 2 hours.
	c.AdvanceTo(5400)
	if err := c.Release(vm.ID); err != nil {
		t.Error(err)
	}
	if vm.Running() {
		t.Error("VM still running after release")
	}
	want := 2 * M3XLarge.HourlyUSD
	if math.Abs(c.Cost()-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", c.Cost(), want)
	}
	if err := c.Release(vm.ID); err == nil {
		t.Error("double release accepted")
	}
	if err := c.Release("i-missing"); err == nil {
		t.Error("release of unknown VM accepted")
	}
}

func TestSpeedHeterogeneityAndDeterminism(t *testing.T) {
	c := NewCluster()
	a := c.Acquire(M32XLarge)
	b := c.Acquire(M32XLarge)
	if a.Speed(100) != a.Speed(100) {
		t.Error("speed not deterministic")
	}
	// Bounded fluctuation.
	for _, tm := range []float64{0, 500, 3000, 86400} {
		sp := a.Speed(tm)
		if sp < 0.7 || sp > 1.3 {
			t.Errorf("speed(%v) = %v outside sane band", tm, sp)
		}
	}
	// Different VMs differ at least somewhere (heterogeneity).
	diff := false
	for _, tm := range []float64{0, 1000, 2000} {
		if math.Abs(a.Speed(tm)-b.Speed(tm)) > 1e-6 {
			diff = true
		}
	}
	if !diff {
		t.Error("no heterogeneity between VMs")
	}
	// Speed varies over time (fluctuation).
	varies := false
	for tm := 0.0; tm < 7200 && !varies; tm += 600 {
		if math.Abs(a.Speed(tm)-a.Speed(0)) > 1e-6 {
			varies = true
		}
	}
	if !varies {
		t.Error("no fluctuation over time")
	}
}

func TestBuildVirtualCluster(t *testing.T) {
	cases := []struct {
		cores     int
		wantVMs   int
		wantCores int
	}{
		{2, 1, 4}, // one xlarge covers 2 worker cores
		{4, 1, 4},
		{8, 1, 8},   // one 2xlarge
		{16, 2, 16}, // two 2xlarge
		{32, 4, 32},
		{128, 16, 128},
		{12, 2, 12}, // one 2xlarge + one xlarge
	}
	for _, cse := range cases {
		c := NewCluster()
		vms, err := c.BuildVirtualCluster(cse.cores)
		if err != nil {
			t.Fatal(err)
		}
		if len(vms) != cse.wantVMs {
			t.Errorf("cores=%d: %d VMs, want %d", cse.cores, len(vms), cse.wantVMs)
		}
		total := 0
		for _, vm := range vms {
			total += vm.Type.Cores
		}
		if total < cse.cores {
			t.Errorf("cores=%d: fleet only has %d cores", cse.cores, total)
		}
		if got := len(c.RunningVMs()); got != len(vms) {
			t.Errorf("cores=%d: %d VMs running, want %d", cse.cores, got, len(vms))
		}
	}
	c := NewCluster()
	if _, err := c.BuildVirtualCluster(0); err == nil {
		t.Error("zero cores accepted")
	}
}

func TestRunningVMsFiltering(t *testing.T) {
	c := NewCluster()
	a := c.Acquire(M3XLarge)
	c.Acquire(M3XLarge)
	if err := c.Release(a.ID); err != nil {
		t.Fatal(err)
	}
	if got := len(c.RunningVMs()); got != 1 {
		t.Errorf("running VMs = %d", got)
	}
	if got := len(c.VMs()); got != 2 {
		t.Errorf("all VMs = %d", got)
	}
}

func TestCostBillsRunningVMsToNow(t *testing.T) {
	c := NewCluster()
	c.Acquire(M32XLarge)
	// Advance 30 minutes without releasing: billed 1 hour so far.
	c.AdvanceTo(1800)
	if got := c.Cost(); math.Abs(got-M32XLarge.HourlyUSD) > 1e-9 {
		t.Errorf("running cost = %v, want one hour (%v)", got, M32XLarge.HourlyUSD)
	}
	// A VM acquired later bills from its own acquisition time.
	c.AdvanceTo(5400)
	late := c.Acquire(M3XLarge)
	if late.BootAt != 5400 {
		t.Errorf("late VM BootAt = %v, want 5400", late.BootAt)
	}
	c.AdvanceTo(6000)
	c.AdvanceTo(100) // the clock never runs backwards
	if c.Now() != 6000 {
		t.Errorf("Now = %v after advancing to 6000 then 100, want 6000", c.Now())
	}
	// First VM: ceil(6000/3600)=2h × 0.9; late VM: ceil(600/3600)=1h × 0.45.
	want := 2*M32XLarge.HourlyUSD + 1*M3XLarge.HourlyUSD
	if got := c.Cost(); math.Abs(got-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", got, want)
	}
}
