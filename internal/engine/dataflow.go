package engine

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cloud"
	"repro/internal/prov"
	"repro/internal/sched"
	"repro/internal/workflow"
)

// Runtime selects the stage policy of Engine.Run's one executor.
type Runtime int

const (
	// RuntimeDataflow is the pipelined per-tuple policy (default):
	// every (activity, tuple) activation flows downstream the moment
	// its own predecessors finish, as SciCumulus dispatches
	// activations. Reduce is the only barrier, and only per
	// group-key.
	RuntimeDataflow Runtime = iota
	// RuntimeBarrier gates the same dispatcher into stages, kept for
	// ablation (bench/ reports it as engine.barrier_tet_s beside the
	// dataflow virtual_tet_s): an activity's activations stay parked
	// until the activity before it in topological order has closed,
	// then start together on an idle fleet at the frontier.
	RuntimeBarrier
)

// errNoResult classifies a body that returned neither a result nor an
// error: a FAILED activation, not a nil dereference in the dispatcher.
var errNoResult = errors.New("activation returned no result")

// dfNode is one activation of the dataflow DAG: an (activity, tuple)
// pair whose real body runs on the wall-clock worker pool while its
// virtual placement is decided by the dispatcher.
type dfNode struct {
	act    *workflow.Activity
	actIdx int // topological index of the activity
	tuple  workflow.Tuple

	// Deterministic ready-queue identity: siblings are ordered by the
	// parent's placement sequence and their index among the parent's
	// spawned children; sources and reduce groups use parentSeq -1
	// with their input/group index.
	parentSeq int
	outIdx    int

	readyAt  float64 // virtual time the inputs exist (parent placement end)
	cost     float64 // cost-model draw, set at registration
	planCost float64 // ready-queue priority weight, set at registration

	group []workflow.Tuple // Reduce only: the group's input tuples

	// Body outcome, written by a pool worker strictly before done is
	// set (both under the dataflow mutex, so the dispatcher observes
	// a complete outcome).
	done    bool
	result  *workflow.ActivationResult
	err     error
	aborted string // non-empty: steering abort reason
	fanErr  error  // operator contract violation (CheckFanOut)

	// children spawned from this node's outputs (non-Reduce
	// dependents), in (dependent, output) order. Their bodies start
	// immediately; their virtual readyAt is this node's placement
	// end.
	children []*dfNode
}

// dfHeap is the dispatcher's ready queue, ordered by virtual ready
// time with heavier (believed) activations first among equals — the
// streaming analogue of the greedy scheduler's LPT stage order.
type dfHeap []*dfNode

func (h dfHeap) Len() int { return len(h) }
func (h dfHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch {
	case a.readyAt < b.readyAt:
		return true
	case b.readyAt < a.readyAt:
		return false
	}
	switch {
	case a.planCost > b.planCost:
		return true
	case b.planCost > a.planCost:
		return false
	}
	if a.actIdx != b.actIdx {
		return a.actIdx < b.actIdx
	}
	if a.parentSeq != b.parentSeq {
		return a.parentSeq < b.parentSeq
	}
	return a.outIdx < b.outIdx
}
func (h dfHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *dfHeap) Push(x any)   { *h = append(*h, x.(*dfNode)) }
func (h *dfHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return n
}

// dataflow is the per-run state of the executor.
//
// Two planes share it. The wall-clock plane — a bounded worker pool —
// runs activity bodies (the real chemistry) and spawns children the
// moment a body finishes, so downstream tuples never wait for
// stragglers of their stage. The virtual plane — the dispatcher, on
// the caller's goroutine — pops the ready queue in deterministic
// order, waits for that node's body, and streams the placement into
// provenance. Determinism holds because a child becomes ready exactly
// at its parent's placement end, which is never earlier than the
// parent's own ready time: the queue minimum is always safe to place,
// so the virtual timeline is a pure function of the DAG and the cost
// model, independent of goroutine interleaving.
//
// RuntimeBarrier changes the virtual plane only: nodes reach the ready
// queue a whole activity at a time (see open), everything else — pool,
// steering, failure classification, provenance, cancellation — is the
// same code.
type dataflow struct {
	e       *Engine
	ctx     context.Context
	wkfid   int64
	barrier bool // RuntimeBarrier: stages open one at a time
	order   []*workflow.Activity
	idx     map[string]int // activity tag → topo index
	ids     []int64        // hactivity ids, by topo index
	deps    [][]int        // downstream activity indexes, by topo index
	fleet   []*cloud.VM

	mu        sync.Mutex
	workCond  *sync.Cond // wakes pool workers: queue grew, cancel or shutdown
	doneCond  *sync.Cond // wakes the dispatcher: some body finished, or cancel
	queue     []*dfNode
	shutdown  bool
	cancelled bool // ctx cancelled: workers stop, dispatcher drains

	// Dispatcher-only state (no lock: single goroutine).
	ready      dfHeap
	succ       [][]int     // activities that lose an open source when this one closes
	openSrc    []int       // activities that must close before this one opens
	held       [][]*dfNode // nodes parked until their activity opens
	registered []int       // nodes ever added to the ready queue
	placed     []int
	closed     []bool
	stats      []ActivityStats
	actStart   []float64          // earliest placement start per activity
	actEnd     []float64          // latest placement end per activity
	outTuples  [][]workflow.Tuple // accepted outputs, placement order
	outEnds    [][]float64        // matching placement ends (reduce barriers)
	frontier   float64            // latest placement end overall
	placeSeq   int
}

// runDataflow executes the workflow. clock holds the workflow's
// virtual start (post-boot) on entry and the virtual completion
// frontier on return.
func (e *Engine) runDataflow(ctx context.Context, order []*workflow.Activity, actIDs map[string]int64, wkfid int64,
	input *workflow.Relation, fleet []*cloud.VM, report *Report, clock *float64) error {

	d := &dataflow{
		e:          e,
		ctx:        ctx,
		wkfid:      wkfid,
		barrier:    e.opts.Runtime == RuntimeBarrier,
		order:      order,
		idx:        make(map[string]int, len(order)),
		ids:        make([]int64, len(order)),
		deps:       make([][]int, len(order)),
		fleet:      fleet,
		openSrc:    make([]int, len(order)),
		held:       make([][]*dfNode, len(order)),
		registered: make([]int, len(order)),
		placed:     make([]int, len(order)),
		closed:     make([]bool, len(order)),
		stats:      make([]ActivityStats, len(order)),
		actStart:   make([]float64, len(order)),
		actEnd:     make([]float64, len(order)),
		outTuples:  make([][]workflow.Tuple, len(order)),
		outEnds:    make([][]float64, len(order)),
		frontier:   *clock,
	}
	d.workCond = sync.NewCond(&d.mu)
	d.doneCond = sync.NewCond(&d.mu)
	for i, a := range order {
		d.idx[a.Tag] = i
	}
	for i, a := range order {
		d.ids[i] = actIDs[a.Tag]
		d.stats[i].Tag = a.Tag
		d.openSrc[i] = len(a.Depends)
		for _, dep := range a.Depends {
			di := d.idx[dep]
			d.deps[di] = append(d.deps[di], i)
		}
	}
	d.succ = d.deps
	if d.barrier {
		// A stage waits for the one before it in topological order —
		// its real upstreams are earlier still — so stages never share
		// the fleet, whatever the DAG's shape.
		d.succ = make([][]int, len(order))
		for i := 1; i < len(order); i++ {
			d.succ[i-1] = []int{i}
			d.openSrc[i] = 1
		}
	}
	// A fresh run starts with an idle fleet regardless of what a
	// previous workflow on this engine left behind.
	e.opts.Scheduler.Reset()

	// Seed the DAG: every source activity consumes the full input
	// relation. Bodies are queued first so the pool starts chewing
	// while the dispatcher drains placements.
	for i, a := range order {
		if len(a.Depends) > 0 {
			continue
		}
		for j, t := range input.Tuples {
			d.park(&dfNode{act: a, actIdx: i, tuple: t, parentSeq: -1, outIdx: j, readyAt: *clock})
		}
		if d.openSrc[i] == 0 {
			if err := d.open(i); err != nil {
				return err
			}
		}
	}

	workers, releaseTokens := e.grab(e.opts.Parallelism)
	defer releaseTokens()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.worker()
		}()
	}

	// Cancellation watch: flips the cancelled flag and wakes both the
	// dispatcher (to drain the ready queue as ABORTED) and the workers
	// (to stop picking up bodies). The stop channel retires the watch
	// when the run ends on its own.
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			d.mu.Lock()
			d.cancelled = true
			d.doneCond.Broadcast()
			d.workCond.Broadcast()
			d.mu.Unlock()
		case <-stop:
		}
	}()

	err := d.dispatch()
	close(stop)

	d.mu.Lock()
	d.shutdown = true
	d.workCond.Broadcast()
	d.mu.Unlock()
	wg.Wait()
	if err != nil && !errors.Is(err, ErrCancelled) {
		return err
	}

	// A cancelled run still reports the work it did (placed
	// activations plus the drained ABORTED tail).
	for i := range order {
		report.PerActivity = append(report.PerActivity, d.stats[i])
		report.Activations += d.stats[i].Activations
		report.Failures += d.stats[i].Failures
		report.Aborted += d.stats[i].Aborted
	}
	if len(order) > 0 {
		report.Outputs = d.outTuples[len(order)-1]
	}
	*clock = d.frontier
	return err
}

// dispatch drains the ready queue: pop the deterministic minimum,
// wait for its wall-clock body, stream its placement into provenance,
// then release the children it unlocked.
func (d *dataflow) dispatch() error {
	for d.ready.Len() > 0 {
		n := heap.Pop(&d.ready).(*dfNode)
		d.mu.Lock()
		if d.ctx.Err() != nil {
			// Synchronous check so a context cancelled before (or
			// between) placements drains deterministically, without
			// racing the watch goroutine.
			d.cancelled = true
			d.workCond.Broadcast()
		}
		for !n.done && !d.cancelled {
			d.doneCond.Wait()
		}
		cancelled := d.cancelled
		d.mu.Unlock()
		if cancelled {
			return d.drainCancelled(n)
		}
		if err := d.place(n); err != nil {
			return err
		}
		if err := d.maybeClose(n.actIdx); err != nil {
			return err
		}
	}
	return nil
}

// drainCancelled empties the ready queue after cancellation: every
// remaining node, parked ones included — whether its wall-clock body
// ran or not — closes in provenance as a zero-cost ABORTED activation
// at its virtual ready time. Only fields immutable since the node was
// spawned are read, so the drain never races a pool worker still
// finishing a body.
func (d *dataflow) drainCancelled(n *dfNode) error {
	for ai := range d.held {
		d.release(ai)
	}
	for {
		if err := d.closeUnrun(n, prov.StatusAborted, " # aborted: "+cancelReason); err != nil {
			return err
		}
		if d.ready.Len() == 0 {
			return ErrCancelled
		}
		n = heap.Pop(&d.ready).(*dfNode)
	}
}

// park queues a node's body on the pool and holds the node back from
// the ready queue until its activity opens.
func (d *dataflow) park(n *dfNode) {
	d.mu.Lock()
	d.queue = append(d.queue, n)
	d.workCond.Broadcast()
	d.mu.Unlock()
	d.held[n.actIdx] = append(d.held[n.actIdx], n)
}

// release moves an activity's parked nodes into the ready queue. Under
// the barrier they become ready together at the frontier: the stage
// starts at the previous stage's makespan.
func (d *dataflow) release(ai int) {
	for _, n := range d.held[ai] {
		if d.barrier {
			n.readyAt = d.frontier
		}
		d.register(n)
	}
	d.held[ai] = nil
}

// register adds a node to the ready queue. It draws the activation's
// cost — once; place charges the same draw — and fixes the priority
// weight from what the scheduler is allowed to know: the
// provenance-history estimate when enabled, the cost-model oracle (the
// draw itself) otherwise.
func (d *dataflow) register(n *dfNode) {
	n.cost = d.e.cost.Sample(n.act.Tag, activationKey(n.act.Tag, n.tuple))
	n.planCost = n.cost
	if d.e.opts.ProvenanceEstimates {
		n.planCost = d.e.estimateFor(n.act.Tag)
	}
	d.registered[n.actIdx]++
	heap.Push(&d.ready, n)
}

// worker is one wall-clock pool goroutine: it runs activity bodies
// and, on success, immediately spawns the children's bodies — the
// overlap that removes the stage barrier.
func (d *dataflow) worker() {
	for {
		d.mu.Lock()
		for !d.shutdown && !d.cancelled && len(d.queue) == 0 {
			d.workCond.Wait()
		}
		if d.shutdown || d.cancelled {
			d.mu.Unlock()
			return
		}
		n := d.queue[0]
		d.queue = d.queue[1:]
		d.mu.Unlock()

		d.runNode(n)

		d.mu.Lock()
		d.finish(n)
		d.mu.Unlock()
	}
}

// runNode evaluates steering rules and executes the body (outside the
// lock; this is the real chemistry). Rules and bodies are caller code
// on a pool goroutine no caller can guard, so a panic in either is
// contained here and becomes the activation's error.
func (d *dataflow) runNode(n *dfNode) {
	defer func() {
		if r := recover(); r != nil {
			n.err = fmt.Errorf("engine: activation panicked: %v", r)
		}
	}()
	for _, rule := range d.e.opts.AbortRules {
		if reason, abort := rule(n.act.Tag, n.tuple); abort {
			n.aborted = reason
			return
		}
	}
	if n.act.Op == workflow.Reduce {
		n.result, n.err = n.act.RunReduce(n.group)
	} else {
		n.result, n.err = n.act.Run(n.tuple)
	}
	if n.result == nil && n.err == nil {
		n.err = errNoResult
	}
}

// finish publishes a body outcome (caller holds d.mu): children are
// spawned for non-Reduce dependents — Reduce inputs instead gather at
// placement time, preserving the per-group barrier — and the
// dispatcher is woken.
func (d *dataflow) finish(n *dfNode) {
	if !d.cancelled && n.aborted == "" && n.err == nil {
		n.fanErr = n.act.CheckFanOut(n.result)
		if n.fanErr == nil {
			for _, di := range d.deps[n.actIdx] {
				dep := d.order[di]
				if dep.Op == workflow.Reduce {
					continue
				}
				for _, out := range n.result.Outputs {
					c := &dfNode{act: dep, actIdx: di, tuple: out, outIdx: len(n.children)}
					n.children = append(n.children, c)
					d.queue = append(d.queue, c)
				}
			}
			if len(n.children) > 0 {
				d.workCond.Broadcast()
			}
		}
	}
	n.done = true
	d.doneCond.Broadcast()
}

// admit counts a node as placed and draws its task id and provenance
// command line.
func (d *dataflow) admit(n *dfNode) (taskid int64, cmd string) {
	d.placed[n.actIdx]++
	d.stats[n.actIdx].Activations++
	d.e.mu.Lock()
	d.e.nextTask++
	taskid = d.e.nextTask
	d.e.mu.Unlock()
	cmd, err := workflow.Instantiate(n.act.Template, n.tuple)
	if err != nil {
		cmd = n.act.Template // provenance keeps the raw template
	}
	return taskid, cmd
}

// closeUnrun records an activation that never occupied a core — a
// steering abort, a genuine failure, a cancelled run's tail — as a
// zero-cost terminal row at the node's ready time.
func (d *dataflow) closeUnrun(n *dfNode, status, note string) error {
	taskid, cmd := d.admit(n)
	d.stats[n.actIdx].Aborted++
	at := d.e.vt(n.readyAt)
	return d.e.app.InsertActivation(taskid, d.ids[n.actIdx], d.wkfid, status, at, at, "-", 0, cmd+note)
}

// place streams one activation into the virtual timeline and the
// provenance store. Steering aborts and genuine errors (the tuple is
// dropped; provenance keeps the error for the scientist's queries)
// record terminal rows at the node's ready time; looping activations
// are charged the loop timeout on a core then aborted; successes get
// cost-model attempts, file staging and extractor output.
func (d *dataflow) place(n *dfNode) error {
	loop := errors.Is(n.err, ErrLoop)
	switch {
	case n.aborted != "":
		return d.closeUnrun(n, prov.StatusAborted, " # aborted: "+n.aborted)
	case n.err != nil && !loop:
		return d.closeUnrun(n, prov.StatusFailed, " # error: "+n.err.Error())
	}

	e := d.e
	st := &d.stats[n.actIdx]
	actid := d.ids[n.actIdx]
	taskid, cmd := d.admit(n)
	key := activationKey(n.act.Tag, n.tuple)
	a := sched.Activation{ID: taskid, Tag: n.act.Tag, Key: key}
	status := prov.StatusFinished
	if loop {
		// Looping state: charge the loop timeout, then abort.
		st.Aborted++
		status = prov.StatusAborted
		a.Attempts = []float64{sched.LoopTimeout}
	} else {
		a.Attempts = []float64{n.cost}
		if !e.opts.DisableFailures {
			a.Attempts = e.cost.Attempts(n.act.Tag, key, n.cost)
		}
		// Stage the output files now so I/O time lands in the virtual
		// duration.
		for _, f := range n.result.Files {
			lat, err := e.FS.Write(f.Dir+f.Name, f.Content)
			if err != nil {
				return fmt.Errorf("engine: staging %s: %w", f.Name, err)
			}
			a.IOTime += lat
		}
	}
	p, err := e.opts.Scheduler.Place(n.readyAt, a, d.fleet)
	if err != nil {
		return err
	}
	d.observePlacement(n.actIdx, p)
	// PROV-Wf lifecycle: the row is born RUNNING and closed with the
	// terminal status (provpair enforces the pair).
	if err := e.app.BeginActivation(taskid, actid, d.wkfid, e.vt(p.Start), p.VMID, cmd); err != nil {
		return err
	}
	if err := e.app.CloseActivation(taskid, status, e.vt(p.End), int64(p.Failures)); err != nil {
		return err
	}
	if loop {
		return nil
	}
	st.Failures += p.Failures
	if e.opts.ProvenanceEstimates {
		e.observeDuration(n.act.Tag, p.End-p.Start)
	}
	for _, f := range n.result.Files {
		e.mu.Lock()
		e.nextFile++
		fileid := e.nextFile
		e.mu.Unlock()
		if err := e.app.InsertFile(fileid, taskid, actid, d.wkfid,
			f.Name, int64(len(f.Content)), f.Dir); err != nil {
			return err
		}
	}
	if err := e.recordExtract(taskid, d.wkfid, n.result.Extract); err != nil {
		return err
	}
	if n.fanErr != nil {
		// Contract violation: drop the tuple, keep going (children
		// were never spawned).
		st.Aborted++
		return nil
	}
	d.outTuples[n.actIdx] = append(d.outTuples[n.actIdx], n.result.Outputs...)
	for range n.result.Outputs {
		d.outEnds[n.actIdx] = append(d.outEnds[n.actIdx], p.End)
	}
	// Children become ready the instant this placement ends — unless
	// the barrier parks them until their stage opens.
	seq := d.placeSeq
	for _, c := range n.children {
		c.parentSeq = seq
		c.readyAt = p.End
		if d.barrier {
			d.held[c.actIdx] = append(d.held[c.actIdx], c)
		} else {
			d.register(c)
		}
	}
	return nil
}

// observePlacement folds one placement into the per-activity span
// accounting and the workflow frontier.
func (d *dataflow) observePlacement(ai int, p sched.Placement) {
	st := &d.stats[ai]
	st.TotalSecs += p.End - p.Start
	if d.placed[ai] == 1 || p.Start < d.actStart[ai] {
		d.actStart[ai] = p.Start
	}
	if p.End > d.actEnd[ai] {
		d.actEnd[ai] = p.End
	}
	if p.End > d.frontier {
		d.frontier = p.End
	}
	d.placeSeq++
}

// maybeClose closes the activity if it is finished — every upstream
// closed (so no new activations can appear) and every known
// activation placed — then cascades: dependents lose an open source,
// the ones left with none open, and empty dependents close in turn.
func (d *dataflow) maybeClose(ai int) error {
	work := []int{ai}
	for len(work) > 0 {
		i := work[0]
		work = work[1:]
		if d.closed[i] || d.openSrc[i] > 0 || d.registered[i] > d.placed[i] {
			continue
		}
		d.closed[i] = true
		st := &d.stats[i]
		if st.Activations > 0 {
			// StageSecs is the activity's busy span: under the dataflow
			// policy it has no exclusive stage to report a makespan of.
			st.StageSecs = d.actEnd[i] - d.actStart[i]
			if d.e.opts.OnStageComplete != nil {
				// The steering hook may query Engine.DB; make every
				// placement recorded so far visible first.
				if err := d.e.app.Flush(); err != nil {
					return err
				}
				d.e.opts.OnStageComplete(StageEvent{
					WorkflowID: d.wkfid,
					Activity:   d.order[i].Tag,
					Stats:      *st,
					Clock:      d.frontier,
					Engine:     d.e,
				})
			}
		}
		for _, di := range d.succ[i] {
			d.openSrc[di]--
			if d.openSrc[di] > 0 {
				continue
			}
			if err := d.open(di); err != nil {
				return err
			}
			work = append(work, di)
		}
	}
	return nil
}

// open fires when an activity's full load is known — sources at
// submit, the rest when their last open source closes: a Reduce
// materializes its groups, the adaptive-elasticity policy sizes the
// fleet for the incoming load, and parked nodes enter the ready queue.
// Under the dataflow policy a mid-stream Map-like activity has nothing
// parked: its activations trickled in behind their parents on the
// fleet of the moment. Under the barrier this is the stage boundary:
// every node of the activity was parked, and the fleet starts idle.
func (d *dataflow) open(ai int) error {
	e := d.e
	if d.barrier {
		e.opts.Scheduler.Reset()
	}
	if d.order[ai].Op == workflow.Reduce {
		d.spawnReduce(ai)
	}
	if count := d.registered[ai] + len(d.held[ai]); e.opts.Adaptive != nil && count > 0 {
		e.advanceSim(d.frontier)
		mean := e.cost.Mean(d.order[ai].Tag)
		if mean == 0 {
			mean = 1
		}
		fleet, err := e.opts.Adaptive.Resize(e.Cluster, e.opts.Adaptive.DesiredCores(mean*float64(count)))
		if err != nil {
			return err
		}
		d.fleet = fleet
	}
	d.release(ai)
	return nil
}

// spawnReduce materializes a Reduce activity once all its upstreams
// have closed: inputs are grouped by GroupKey in first-appearance
// order (upstream outputs concatenated in Depends order, each in
// placement order), and each group becomes one parked activation ready
// at its own barrier — the latest placement end among the group's
// inputs.
func (d *dataflow) spawnReduce(ai int) {
	act := d.order[ai]
	groups := map[string][]workflow.Tuple{}
	barrier := map[string]float64{}
	var order []string
	for _, dep := range act.Depends {
		di := d.idx[dep]
		for j, t := range d.outTuples[di] {
			k := t[act.GroupKey]
			if _, seen := groups[k]; !seen {
				order = append(order, k)
			}
			groups[k] = append(groups[k], t)
			if d.outEnds[di][j] > barrier[k] {
				barrier[k] = d.outEnds[di][j]
			}
		}
	}
	for gi, k := range order {
		d.park(&dfNode{
			act: act, actIdx: ai,
			tuple:     workflow.Tuple{act.GroupKey: k},
			group:     groups[k],
			parentSeq: -1, outIdx: gi,
			readyAt: barrier[k],
		})
	}
}
