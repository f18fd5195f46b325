// Package campaign turns the one-shot SciDock execution stack into a
// resident multi-campaign runtime: a Manager admits validated
// campaign specs per tenant, queues them FIFO, runs each on its own
// engine (own provenance database, shared FS and virtual cluster)
// with a per-campaign account on the process-wide CPU token budget,
// and threads cancellation down to the engine so an in-flight
// campaign can be aborted with its pending activations closed as
// ABORTED in provenance.
//
// This is the service shape of the Virtual Laboratory line of work —
// on-demand docking campaigns multiplexed over a bounded resource
// broker — layered on the paper's SciCumulus engine. cmd/scidock uses
// the Manager both ways: `-serve` exposes it over HTTP/JSON, and the
// classic one-shot CLI is a thin client submitting a single campaign
// and waiting, so single-campaign behavior is unchanged.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/parallel"
	"repro/internal/prov"
)

// State is a campaign's lifecycle state.
type State string

// Campaign lifecycle: Submit → QUEUED → RUNNING → one of DONE /
// FAILED / CANCELLED. Cancel on a running campaign passes through
// CANCELLING while the engine drains.
const (
	StateQueued     State = "QUEUED"
	StateRunning    State = "RUNNING"
	StateCancelling State = "CANCELLING"
	StateDone       State = "DONE"
	StateFailed     State = "FAILED"
	StateCancelled  State = "CANCELLED"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Limits is the Manager's admission-control policy.
type Limits struct {
	// MaxRunning bounds campaigns executing concurrently across all
	// tenants (each gets a fair-share account on the CPU budget).
	MaxRunning int
	// MaxRunningPerTenant bounds one tenant's concurrent campaigns.
	MaxRunningPerTenant int
	// MaxQueuedPerTenant bounds one tenant's waiting campaigns;
	// Submit rejects beyond it (backpressure instead of unbounded
	// queues).
	MaxQueuedPerTenant int
}

// DefaultLimits is the policy used when a zero Limits is given.
func DefaultLimits() Limits {
	return Limits{MaxRunning: 2, MaxRunningPerTenant: 1, MaxQueuedPerTenant: 8}
}

// ErrQueueFull rejects a Submit that would exceed the tenant's queue
// allowance.
var ErrQueueFull = errors.New("campaign: tenant queue full")

// ErrDraining rejects Submits after Shutdown has begun.
var ErrDraining = errors.New("campaign: manager is draining")

// ErrNotFound marks an unknown campaign ID.
var ErrNotFound = errors.New("campaign: not found")

// record is the Manager's view of one campaign. Mutable fields are
// guarded by Manager.mu; camp is set once at start, and while the run
// goroutine executes the Manager touches only camp.Engine's provenance
// DB, which supports concurrent queries. camp.Reports belongs to that
// goroutine (Execute appends to it) until the record is terminal.
type record struct {
	id        int64
	tenant    string
	spec      Spec
	cfg       core.Config
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string

	camp   *core.Campaign // set when the campaign starts
	acct   *parallel.Account
	cancel context.CancelFunc
	done   chan struct{} // closed on terminal state

	// Live progress fed by the engine's OnStageComplete steering hook:
	// what a running campaign's Status reports. Counts cover the stages
	// closed so far; workflows is how many have closed one.
	stagesDone  int
	lastStage   string
	clock       float64 // virtual seconds
	lastWkf     int64
	workflows   int
	activations int
	failures    int
	aborted     int
}

// Manager owns campaign lifecycle for one process: admission,
// FIFO-per-tenant queueing, execution with per-campaign token
// accounts, cancellation and status. All state lives behind one
// mutex; campaign bodies execute on their own goroutines outside it.
type Manager struct {
	pool   *parallel.Pool
	limits Limits

	mu            sync.Mutex
	nextID        int64
	records       map[int64]*record
	queue         []*record // FIFO submission order, queued only
	running       int
	tenantRunning map[string]int
	draining      bool
	wg            sync.WaitGroup
}

// NewManager builds a manager drawing CPU tokens from pool (nil = the
// process-global budget). A zero Limits selects DefaultLimits.
func NewManager(pool *parallel.Pool, limits Limits) *Manager {
	if pool == nil {
		pool = parallel.Tokens()
	}
	if limits == (Limits{}) {
		limits = DefaultLimits()
	}
	if limits.MaxRunning < 1 {
		limits.MaxRunning = 1
	}
	if limits.MaxRunningPerTenant < 1 {
		limits.MaxRunningPerTenant = 1
	}
	if limits.MaxQueuedPerTenant < 1 {
		limits.MaxQueuedPerTenant = 1
	}
	return &Manager{
		pool:          pool,
		limits:        limits,
		records:       map[int64]*record{},
		tenantRunning: map[string]int{},
	}
}

// Submit validates and admits a spec, returning the campaign ID. The
// campaign starts as soon as admission control allows (FIFO within
// its tenant, bounded concurrency overall).
func (m *Manager) Submit(spec Spec) (int64, error) {
	cfg, err := spec.Config()
	if err != nil {
		return 0, err
	}
	return m.SubmitConfig(spec, cfg)
}

// SubmitConfig admits a fully-built core.Config — the one-shot CLI
// path, which may carry knobs a JSON spec cannot (steering hooks,
// custom schedulers). spec describes the campaign for Status/List and
// names the tenant.
func (m *Manager) SubmitConfig(spec Spec, cfg core.Config) (int64, error) {
	tenant := spec.TenantName()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.draining {
		return 0, ErrDraining
	}
	queued := 0
	for _, r := range m.queue {
		if r.tenant == tenant {
			queued++
		}
	}
	if queued >= m.limits.MaxQueuedPerTenant {
		return 0, fmt.Errorf("%w: tenant %q has %d campaigns queued (max %d)",
			ErrQueueFull, tenant, queued, m.limits.MaxQueuedPerTenant)
	}
	m.nextID++
	r := &record{
		id:        m.nextID,
		tenant:    tenant,
		spec:      spec,
		cfg:       cfg,
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	m.records[r.id] = r
	m.queue = append(m.queue, r)
	m.pump()
	return r.id, nil
}

// pump starts queued campaigns while capacity allows: FIFO order,
// skipping tenants already at their running cap. Caller holds m.mu.
func (m *Manager) pump() {
	for m.running < m.limits.MaxRunning {
		idx := -1
		for i, r := range m.queue {
			if m.tenantRunning[r.tenant] < m.limits.MaxRunningPerTenant {
				idx = i
				break
			}
		}
		if idx < 0 {
			return
		}
		r := m.queue[idx]
		m.queue = append(m.queue[:idx], m.queue[idx+1:]...)
		m.start(r)
	}
}

// start transitions a record to RUNNING and launches its run
// goroutine. Caller holds m.mu.
func (m *Manager) start(r *record) {
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.acct = m.pool.NewAccount()
	r.state = StateRunning
	r.started = time.Now()
	m.running++
	m.tenantRunning[r.tenant]++

	cfg := r.cfg
	cfg.Tokens = r.acct
	userHook := cfg.OnStageComplete
	cfg.OnStageComplete = func(ev engine.StageEvent) {
		m.mu.Lock()
		r.stagesDone++
		r.lastStage = ev.Activity
		r.clock = ev.Clock
		if ev.WorkflowID != r.lastWkf {
			r.lastWkf = ev.WorkflowID
			r.workflows++
		}
		r.activations += ev.Stats.Activations
		r.failures += ev.Stats.Failures
		r.aborted += ev.Stats.Aborted
		m.mu.Unlock()
		if userHook != nil {
			userHook(ev)
		}
	}

	m.wg.Add(1)
	go m.run(r, cfg, ctx, cancel)
}

// run executes one campaign to a terminal state. It owns no lock
// while the engine works; the terminal bookkeeping (state, account
// close, next pump) happens in one critical section.
func (m *Manager) run(r *record, cfg core.Config, ctx context.Context, cancel context.CancelFunc) {
	defer m.wg.Done()
	defer cancel()

	camp, err := core.NewCampaign(cfg)
	if err == nil {
		// Nothing reads a served campaign's staged files back, and its
		// record outlives it: keep the file accounting, not the bytes.
		camp.Engine.FS.DropContents()
		m.mu.Lock()
		r.camp = camp
		m.mu.Unlock()
		err = camp.Execute(ctx)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case err == nil:
		r.state = StateDone
	case errors.Is(err, engine.ErrCancelled):
		r.state = StateCancelled
		r.errMsg = err.Error()
	default:
		r.state = StateFailed
		r.errMsg = err.Error()
	}
	r.finished = time.Now()
	r.acct.Close()
	m.running--
	m.tenantRunning[r.tenant]--
	if m.tenantRunning[r.tenant] == 0 {
		delete(m.tenantRunning, r.tenant)
	}
	close(r.done)
	m.pump()
}

// Cancel aborts a campaign: a queued one terminates immediately as
// CANCELLED; a running one transitions to CANCELLING and its engine
// drains pending activations as ABORTED. Cancelling a terminal
// campaign is a no-op. Returns the state observed after the call.
func (m *Manager) Cancel(id int64) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[id]
	if !ok {
		return "", fmt.Errorf("%w: campaign %d", ErrNotFound, id)
	}
	switch r.state {
	case StateQueued:
		for i, q := range m.queue {
			if q == r {
				m.queue = append(m.queue[:i], m.queue[i+1:]...)
				break
			}
		}
		r.state = StateCancelled
		r.errMsg = "cancelled before start"
		r.finished = time.Now()
		close(r.done)
		m.pump()
	case StateRunning:
		r.state = StateCancelling
		r.cancel()
	case StateCancelling:
		// already on its way down
	}
	return r.state, nil
}

// Wait blocks until the campaign reaches a terminal state (or ctx is
// done) and returns the executed campaign. A cancelled campaign
// returns its partial result alongside an error wrapping
// engine.ErrCancelled; a failed one returns its error.
func (m *Manager) Wait(ctx context.Context, id int64) (*core.Campaign, error) {
	m.mu.Lock()
	r, ok := m.records[id]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: campaign %d", ErrNotFound, id)
	}
	select {
	case <-r.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	switch r.state {
	case StateDone:
		return r.camp, nil
	case StateCancelled:
		return r.camp, fmt.Errorf("campaign %d cancelled: %w", id, engine.ErrCancelled)
	default:
		return r.camp, fmt.Errorf("campaign %d failed: %s", id, r.errMsg)
	}
}

// PoolStatus reports the shared CPU budget's occupancy.
type PoolStatus struct {
	Capacity int `json:"capacity"`
	InUse    int `json:"in_use"`
	Accounts int `json:"accounts"`
}

// Status is a point-in-time campaign snapshot.
type Status struct {
	ID        int64  `json:"id"`
	Tenant    string `json:"tenant"`
	State     State  `json:"state"`
	Spec      Spec   `json:"spec"`
	Submitted string `json:"submitted"`
	Error     string `json:"error,omitempty"`

	// Progress from the engine's steering hook (running campaigns)
	// and the final reports (terminal ones).
	StagesDone  int     `json:"stages_done"`
	LastStage   string  `json:"last_stage,omitempty"`
	Clock       float64 `json:"virtual_secs"`
	Workflows   int     `json:"workflows"`
	Activations int     `json:"activations"`
	Failures    int     `json:"failures"`
	Aborted     int     `json:"aborted"`
	TETSecs     float64 `json:"tet_secs"`
	CostUSD     float64 `json:"cost_usd"`

	// Problems is the live provenance count of ABORTED/FAILED
	// activations (-1 when the campaign has not started). It is
	// queried against the campaign's own prov DB, which supports
	// concurrent snapshot queries mid-run (§IV.B runtime steering).
	Problems int64 `json:"problems"`

	Pool PoolStatus `json:"pool"`
}

// Status returns a campaign snapshot, including a live provenance
// query against its database when one exists.
func (m *Manager) Status(id int64) (Status, error) {
	m.mu.Lock()
	r, ok := m.records[id]
	if !ok {
		m.mu.Unlock()
		return Status{}, fmt.Errorf("%w: campaign %d", ErrNotFound, id)
	}
	st := m.snapshotLocked(r)
	camp := r.camp
	m.mu.Unlock()

	st.Problems = -1
	if camp != nil {
		if n, err := problemCount(camp.Engine.DB); err == nil {
			st.Problems = n
		}
	}
	return st, nil
}

// List returns snapshots of every campaign, ordered by ID. Live
// provenance queries are skipped (Problems = -1); use Status for one
// campaign's full view.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.records))
	for _, r := range m.records {
		st := m.snapshotLocked(r)
		st.Problems = -1
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// snapshotLocked builds a Status from a record. Caller holds m.mu.
func (m *Manager) snapshotLocked(r *record) Status {
	st := Status{
		ID:         r.id,
		Tenant:     r.tenant,
		State:      r.state,
		Spec:       r.spec,
		Submitted:  r.submitted.UTC().Format(time.RFC3339),
		Error:      r.errMsg,
		StagesDone: r.stagesDone,
		LastStage:  r.lastStage,
		Clock:      r.clock,
	}
	cap, inUse, accounts := m.pool.Occupancy()
	st.Pool = PoolStatus{Capacity: cap, InUse: inUse, Accounts: accounts}
	if r.camp == nil || !r.state.Terminal() {
		st.Workflows, st.Activations, st.Failures, st.Aborted = r.workflows, r.activations, r.failures, r.aborted
		return st
	}
	// Execute has returned, so the reports are final and nobody appends
	// to them any more: their exact totals replace the running counts.
	st.Workflows = len(r.camp.Reports)
	for _, rep := range r.camp.Reports {
		st.Activations += rep.Activations
		st.Failures += rep.Failures
		st.Aborted += rep.Aborted
	}
	st.TETSecs = r.camp.TET()
	st.CostUSD = r.camp.Engine.Cluster.Cost()
	return st
}

// problemCount is the steering query of §IV.B: how many activations
// have gone wrong so far.
func problemCount(db *prov.DB) (int64, error) {
	res, err := db.Query("SELECT count(*) FROM hactivation WHERE status = 'ABORTED' OR status = 'FAILED'")
	if err != nil {
		return 0, err
	}
	if len(res.Rows) == 0 || len(res.Rows[0]) == 0 {
		return 0, fmt.Errorf("campaign: empty count result")
	}
	switch v := res.Rows[0][0].(type) {
	case int64:
		return v, nil
	case int:
		return int64(v), nil
	case float64:
		return int64(v), nil
	default:
		return 0, fmt.Errorf("campaign: unexpected count type %T", v)
	}
}

// Query runs a provenance SQL query against one campaign's database.
// Queued campaigns have no database yet.
func (m *Manager) Query(id int64, sql string) (*prov.Result, error) {
	m.mu.Lock()
	r, ok := m.records[id]
	var camp *core.Campaign
	if ok {
		camp = r.camp
	}
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: campaign %d", ErrNotFound, id)
	}
	if camp == nil {
		return nil, fmt.Errorf("campaign %d has not started; no provenance yet", id)
	}
	return camp.Engine.DB.Query(sql)
}

// Shutdown drains the manager: admissions stop, queued campaigns are
// cancelled, and running ones are given until ctx expires to finish
// before being cancelled themselves. Blocks until every campaign is
// terminal.
func (m *Manager) Shutdown(ctx context.Context) {
	m.mu.Lock()
	m.draining = true
	for _, r := range m.queue {
		r.state = StateCancelled
		r.errMsg = "cancelled: manager draining"
		r.finished = time.Now()
		close(r.done)
	}
	m.queue = nil
	m.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
		return
	case <-ctx.Done():
	}
	// Deadline passed: cancel whatever is still running, then wait for
	// the engines to drain (bounded: cancellation aborts pending
	// activations without running them).
	m.mu.Lock()
	for _, r := range m.records {
		if r.state == StateRunning {
			r.state = StateCancelling
			r.cancel()
		}
	}
	m.mu.Unlock()
	<-finished
}
