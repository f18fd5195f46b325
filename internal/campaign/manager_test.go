package campaign

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
)

// tinySpec is the test workload: small enough to run in a test, big
// enough to exercise every stage of the chain.
func tinySpec(seed int64) Spec {
	return Spec{
		Receptors: 3, Ligands: 2, Cores: 4,
		Effort: "smoke", Seed: seed,
	}
}

// provBytes snapshots a campaign's provenance database as its exact
// Save byte dump — the strongest equality the store offers.
func provBytes(t *testing.T, c *core.Campaign) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Engine.DB.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertCampaignsIdentical requires byte-identical provenance tables
// and deeply equal reports.
func assertCampaignsIdentical(t *testing.T, label string, got, want *core.Campaign) {
	t.Helper()
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Errorf("%s: reports diverge:\n got  %+v\n want %+v", label, got.Reports, want.Reports)
	}
	gb, wb := provBytes(t, got), provBytes(t, want)
	if !bytes.Equal(gb, wb) {
		t.Errorf("%s: provenance dumps diverge (%d vs %d bytes)", label, len(gb), len(wb))
	}
}

// TestManagerSingleCampaignIdentical pins the thin-client contract:
// one campaign through the Manager is byte-identical to the same
// config run one-shot through core.Run.
func TestManagerSingleCampaignIdentical(t *testing.T) {
	spec := tinySpec(7)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	m := NewManager(parallel.NewPool(2), Limits{})
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	managed, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	assertCampaignsIdentical(t, "manager vs one-shot", managed, oneShot)

	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Errorf("state = %s, want DONE", st.State)
	}
	if st.Problems < 0 {
		t.Error("status did not run the live provenance problem query")
	}
	if st.Activations == 0 || st.TETSecs <= 0 || st.CostUSD <= 0 {
		t.Errorf("status missing report figures: %+v", st)
	}
	if st.Pool.Accounts != 0 {
		t.Errorf("token account leaked: %d accounts open after completion", st.Pool.Accounts)
	}
}

// TestConcurrentCampaignsMatchSequential is the fairness+determinism
// suite: N campaigns with distinct seeds run concurrently through the
// Manager (sharing one small token pool) and must be byte-identical
// to the same campaigns run sequentially one-shot. Run under -race.
func TestConcurrentCampaignsMatchSequential(t *testing.T) {
	seeds := []int64{11, 23, 31}

	sequential := make([]*core.Campaign, len(seeds))
	for i, seed := range seeds {
		cfg, err := tinySpec(seed).Config()
		if err != nil {
			t.Fatal(err)
		}
		if sequential[i], err = core.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}

	pool := parallel.NewPool(3)
	m := NewManager(pool, Limits{
		MaxRunning: len(seeds), MaxRunningPerTenant: len(seeds), MaxQueuedPerTenant: len(seeds),
	})
	ids := make([]int64, len(seeds))
	for i, seed := range seeds {
		id, err := m.Submit(tinySpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	managed := make([]*core.Campaign, len(seeds))
	errs := make([]error, len(seeds))
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			managed[i], errs[i] = m.Wait(context.Background(), ids[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign seed %d: %v", seeds[i], err)
		}
		assertCampaignsIdentical(t, fmt.Sprintf("seed %d concurrent vs sequential", seeds[i]),
			managed[i], sequential[i])
	}
	if inUse := pool.InUse(); inUse != 0 {
		t.Errorf("pool still has %d tokens out", inUse)
	}
	if _, _, accounts := pool.Occupancy(); accounts != 0 {
		t.Errorf("%d token accounts still open", accounts)
	}
}

// TestManagerKeepsFileAccountingNotBytes pins what the Manager's
// content drop changes: a campaign it runs lists the same paths with
// the same sizes, counters and total as core.Run of the same spec, and
// only its Read fails.
func TestManagerKeepsFileAccountingNotBytes(t *testing.T) {
	spec := tinySpec(3)
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(parallel.NewPool(2), Limits{})
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	managed, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	keep, drop := direct.Engine.FS, managed.Engine.FS
	want, err := keep.List("/")
	if err != nil {
		t.Fatal(err)
	}
	got, err := drop.List("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("Manager campaign lists %d paths, core.Run %d", len(got), len(want))
	}
	for _, p := range want {
		ws, _ := keep.Stat(p)
		gs, err := drop.Stat(p)
		if err != nil || gs != ws {
			t.Errorf("%s: size %d (%v), core.Run's %d", p, gs, err, ws)
		}
	}
	ko, kr, kw := keep.Stats()
	if do, dr, dw := drop.Stats(); do != ko || dr != kr || dw != kw {
		t.Errorf("Stats = %d ops %d read %d written, core.Run's %d %d %d", do, dr, dw, ko, kr, kw)
	}
	if drop.TotalBytes() != keep.TotalBytes() {
		t.Errorf("TotalBytes = %d, core.Run's %d", drop.TotalBytes(), keep.TotalBytes())
	}
	if _, _, err := keep.Read(want[0]); err != nil {
		t.Errorf("core.Run campaign: Read(%s): %v", want[0], err)
	}
	if _, _, err := drop.Read(want[0]); err == nil || !strings.Contains(err.Error(), want[0]) {
		t.Errorf("Manager campaign: Read(%s) = %v, want an error naming the path", want[0], err)
	}
}

// blockingConfig returns a config whose first stage-completion blocks
// until release is closed, signalling started once — a deterministic
// window in which the campaign is running mid-flight.
func blockingConfig(t *testing.T, spec Spec, started chan<- struct{}, release <-chan struct{}) core.Config {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	cfg.OnStageComplete = func(engine.StageEvent) {
		once.Do(func() {
			started <- struct{}{}
			<-release
		})
	}
	return cfg
}

// TestManagerCancelRunning cancels a mid-flight campaign and asserts
// the full contract: CANCELLED terminal state, ABORTED provenance
// rows carrying the cancel marker, a partial report, and every CPU
// token back in the pool with the account closed.
func TestManagerCancelRunning(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	spec := tinySpec(5)
	cfg := blockingConfig(t, spec, started, release)

	pool := parallel.NewPool(2)
	m := NewManager(pool, Limits{})
	id, err := m.SubmitConfig(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	<-started // first stage closed; plenty of work still pending
	if state, err := m.Cancel(id); err != nil || state != StateCancelling {
		t.Fatalf("Cancel = %v, %v; want CANCELLING", state, err)
	}
	close(release)

	camp, err := m.Wait(context.Background(), id)
	if !errors.Is(err, engine.ErrCancelled) {
		t.Fatalf("Wait err = %v, want ErrCancelled", err)
	}
	if camp == nil || len(camp.Reports) == 0 {
		t.Fatal("cancelled campaign lost its partial report")
	}
	aborted := 0
	for _, rep := range camp.Reports {
		aborted += rep.Aborted
	}
	if aborted < 1 {
		t.Errorf("partial report shows %d aborted activations, want ≥ 1", aborted)
	}

	res, err := m.Query(id, "SELECT count(*) FROM hactivation WHERE status = 'ABORTED'")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows[0][0]) == "0" {
		t.Error("no ABORTED rows in provenance after cancellation")
	}
	res, err = m.Query(id, "SELECT t.command FROM hactivation t WHERE status = 'ABORTED'")
	if err != nil {
		t.Fatal(err)
	}
	marker := false
	for _, r := range res.Rows {
		if strings.Contains(fmt.Sprint(r[0]), "# aborted: campaign cancelled") {
			marker = true
			break
		}
	}
	if !marker {
		t.Error("no provenance row carries the campaign-cancelled abort marker")
	}

	if inUse := pool.InUse(); inUse != 0 {
		t.Errorf("cancellation leaked %d pool tokens", inUse)
	}
	if _, _, accounts := pool.Occupancy(); accounts != 0 {
		t.Errorf("cancellation leaked %d open accounts", accounts)
	}
	if st, _ := m.Status(id); st.State != StateCancelled {
		t.Errorf("state = %s, want CANCELLED", st.State)
	}
}

// TestAdmissionControl exercises the per-tenant queue and running
// caps: a tenant at its running cap queues, beyond its queue cap is
// rejected, other tenants proceed, and FIFO order drains the queue.
func TestAdmissionControl(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	spec := func(tenant string, seed int64) Spec {
		s := tinySpec(seed)
		s.Tenant = tenant
		return s
	}

	m := NewManager(parallel.NewPool(2), Limits{
		MaxRunning: 2, MaxRunningPerTenant: 1, MaxQueuedPerTenant: 1,
	})
	a1, err := m.SubmitConfig(spec("alice", 1), blockingConfig(t, spec("alice", 1), started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started // alice's first campaign is running

	a2, err := m.Submit(spec("alice", 2)) // tenant cap → queued
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(spec("alice", 3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third alice submit err = %v, want ErrQueueFull", err)
	}
	b1, err := m.SubmitConfig(spec("bob", 4), blockingConfig(t, spec("bob", 4), started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started // bob runs despite alice's queue: global cap is 2

	if st, _ := m.Status(a1); st.State != StateRunning {
		t.Errorf("alice #1 state = %s, want RUNNING", st.State)
	}
	if st, _ := m.Status(a2); st.State != StateQueued {
		t.Errorf("alice #2 state = %s, want QUEUED (tenant running cap)", st.State)
	}
	if st, _ := m.Status(b1); st.State != StateRunning {
		t.Errorf("bob #1 state = %s, want RUNNING", st.State)
	}
	if got := len(m.List()); got != 3 {
		t.Errorf("List() = %d campaigns, want 3", got)
	}

	close(release)
	for _, id := range []int64{a1, a2, b1} {
		if _, err := m.Wait(context.Background(), id); err != nil {
			t.Errorf("campaign %d: %v", id, err)
		}
	}
}

// TestCancelQueued removes a queued campaign without running it.
func TestCancelQueued(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	spec := tinySpec(9)
	m := NewManager(parallel.NewPool(2), Limits{
		MaxRunning: 1, MaxRunningPerTenant: 1, MaxQueuedPerTenant: 2,
	})
	id1, err := m.SubmitConfig(spec, blockingConfig(t, spec, started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	id2, err := m.Submit(tinySpec(10))
	if err != nil {
		t.Fatal(err)
	}
	if state, err := m.Cancel(id2); err != nil || state != StateCancelled {
		t.Fatalf("Cancel queued = %v, %v; want CANCELLED", state, err)
	}
	if _, err := m.Wait(context.Background(), id2); !errors.Is(err, engine.ErrCancelled) {
		t.Errorf("Wait on queued-cancelled err = %v, want ErrCancelled", err)
	}
	if _, err := m.Query(id2, "SELECT count(*) FROM hactivation"); err == nil {
		t.Error("query against never-started campaign should fail")
	}
	close(release)
	if _, err := m.Wait(context.Background(), id1); err != nil {
		t.Fatal(err)
	}
}

// TestShutdownDrains verifies graceful drain: no new admissions,
// queued campaigns cancelled, running ones finishing (or cancelled at
// the deadline).
func TestShutdownDrains(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	spec := tinySpec(13)
	m := NewManager(parallel.NewPool(2), Limits{
		MaxRunning: 1, MaxRunningPerTenant: 1, MaxQueuedPerTenant: 2,
	})
	running, err := m.SubmitConfig(spec, blockingConfig(t, spec, started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(tinySpec(14))
	if err != nil {
		t.Fatal(err)
	}

	drained := make(chan struct{})
	go func() {
		m.Shutdown(context.Background())
		close(drained)
	}()
	// Shutdown cancels the queued campaign synchronously before
	// waiting; only then unblock the running one, so the queued
	// campaign can never have been promoted.
	for {
		if st, err := m.Status(queued); err == nil && st.State == StateCancelled {
			break
		}
		runtime.Gosched()
	}
	close(release)
	<-drained

	if _, err := m.Submit(tinySpec(15)); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after shutdown err = %v, want ErrDraining", err)
	}
	if st, _ := m.Status(queued); st.State != StateCancelled {
		t.Errorf("queued campaign state = %s, want CANCELLED", st.State)
	}
	if st, _ := m.Status(running); !st.State.Terminal() {
		t.Errorf("running campaign state = %s, want terminal", st.State)
	}
}

// TestManagerNotFound covers the error paths for unknown IDs.
func TestManagerNotFound(t *testing.T) {
	m := NewManager(parallel.NewPool(1), Limits{})
	if _, err := m.Status(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("Status err = %v", err)
	}
	if _, err := m.Cancel(99); !errors.Is(err, ErrNotFound) {
		t.Errorf("Cancel err = %v", err)
	}
	if _, err := m.Wait(context.Background(), 99); !errors.Is(err, ErrNotFound) {
		t.Errorf("Wait err = %v", err)
	}
	if _, err := m.Query(99, "SELECT count(*) FROM hactivation"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Query err = %v", err)
	}
}

// TestSpecValidation rejects bad specs with messages naming the valid
// values.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{Mode: "quantum"}, "valid: ad4, vina, adaptive"},
		{Spec{Effort: "heroic"}, "valid: smoke, campaign, quick"},
		{Spec{Cores: -1}, "must be positive"},
		{Spec{Receptors: 9999}, ""},
	}
	for _, c := range cases {
		_, err := c.spec.Config()
		if err == nil {
			t.Errorf("spec %+v: expected error", c.spec)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %+v: error %q does not mention %q", c.spec, err, c.want)
		}
	}
	if _, err := (Spec{}).Config(); err != nil {
		t.Errorf("zero spec must be valid (CLI defaults): %v", err)
	}
}

// TestStatusWhileRunning polls Status from two goroutines in a tight
// loop while an adaptive campaign — two workflows, so Execute appends
// to Campaign.Reports mid-run — executes. Under -race this is the
// regression test for the Manager reading that slice while the run
// goroutine grows it; it also pins what a running snapshot reports:
// counts that only grow, and at the terminal state exactly the
// reports' totals.
func TestStatusWhileRunning(t *testing.T) {
	spec := tinySpec(5)
	spec.Mode = "adaptive"
	spec.Receptors = 6
	m := NewManager(parallel.NewPool(2), Limits{})
	id, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last Status
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, err := m.Status(id)
				if err != nil {
					t.Error(err)
					return
				}
				if !st.State.Terminal() && (st.Activations < last.Activations || st.Workflows < last.Workflows) {
					t.Errorf("running counts went backwards: %+v after %+v", st, last)
					return
				}
				last = st
			}
		}()
	}
	camp, err := m.Wait(context.Background(), id)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	var acts, fails, aborted int
	for _, rep := range camp.Reports {
		acts += rep.Activations
		fails += rep.Failures
		aborted += rep.Aborted
	}
	if st.Workflows != 2 || st.Activations != acts || st.Failures != fails || st.Aborted != aborted {
		t.Errorf("terminal status %+v, reports say %d workflows / %d activations / %d failures / %d aborted",
			st, len(camp.Reports), acts, fails, aborted)
	}
}

// TestFinishedCampaignFootprint bounds what the Manager keeps per
// finished campaign. A record pins the campaign's provenance database,
// its reports and its file accounting — never the product store, which
// dies when Execute returns (core.TestStoreFootprintDiesWithExecute
// watches its molecules go), and never a staged byte: the Manager drops
// the file system's contents before the campaign runs. With per-pair
// copies and a retained builder the same campaign held 6.5 MB; with one
// copy of each shared rendering, 3.1 MB; with none, 1.4 MB; with the
// provenance indexes chaining rows instead of holding a posting slice
// per value, 1.2 MB. The budget sits between the last two.
func TestFinishedCampaignFootprint(t *testing.T) {
	const campaigns, budget = 4, 1.3 * (1 << 20)
	spec := Spec{Receptors: 40, Ligands: 4, Cores: 16, Effort: "smoke", DisableFailures: true}
	m := NewManager(parallel.NewPool(2), Limits{})
	run := func(seed int64) *core.Campaign {
		spec.Seed = seed
		id, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		camp, err := m.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		return camp
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	kept := []*core.Campaign{run(1)} // warm-up: radial tables, pools, lazily built globals
	before := heap()
	for i := 0; i < campaigns; i++ {
		kept = append(kept, run(int64(2+i)))
	}
	after := heap()
	per := (float64(after) - float64(before)) / campaigns
	t.Logf("heap retained per finished campaign: %.2f MB", per/(1<<20))
	if per > budget {
		t.Errorf("a finished campaign retains %.2f MB, budget %.2f MB", per/(1<<20), budget/(1<<20))
	}
	runtime.KeepAlive(kept)
}
