package main

import (
	"bytes"
	"context"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/parallel"
	"repro/internal/prep"
	"repro/internal/prov"
)

// probeTime anchors the synthetic activation rows of the ingest probe
// in the paper's experiment window; wall-clock readings never enter a
// provenance row.
var probeTime = time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)

// ingestThenClose appends n RUNNING activation rows through the
// engine's batching appender and flushes them, calls ingested, then
// closes every row — each close lands on a flushed row, the indexed
// update path. It reads no clock itself: the caller times the two
// halves through ingested.
func ingestThenClose(app *prov.Appender, n int, ingested func()) error {
	var first error
	keep := func(err error) {
		if first == nil {
			first = err
		}
	}
	for i := 1; i <= n; i++ {
		keep(app.BeginActivation(int64(i), 1, 1, probeTime, "vm-1", "probe"))
	}
	keep(app.Flush())
	ingested()
	for i := 1; i <= n; i++ {
		keep(app.CloseActivation(int64(i), prov.StatusFinished, probeTime.Add(time.Minute), 0))
	}
	keep(app.Flush())
	return first
}

// probeProv times the provenance store directly, with nothing else
// running: the five served statements against a finished campaign's
// database, archive save and load, and appender ingest and close on a
// fresh database.
func probeProv(rep *report, db *prov.DB, sc scale) {
	rows := 0
	for _, t := range db.TableNames() {
		rows += db.NumRows(t)
	}
	rep.set("prov.rows", float64(rows))
	for _, q := range []struct {
		name, sql string
		perMS     float64
	}{
		{"prov.q1_ms", experiments.Query1SQL, 1e6}, {"prov.q2_ms", experiments.Query2SQL, 1e6},
		{"prov.topfeb_us", topFEBSQL, 1e3}, {"prov.groupby_us", groupBySQL, 1e3}, {"prov.point_us", pointSQL, 1e3},
	} {
		var err error
		rep.set(q.name, medianOf(sc.rounds*4, func() { _, err = db.Query(q.sql) })/q.perMS)
		rep.check(err == nil, "%s: %v", q.name, err)
	}

	var archive bytes.Buffer
	var err error
	rep.set("prov.save_ms", medianOf(sc.rounds, func() {
		archive.Reset()
		err = db.Save(&archive)
	})/1e6)
	rep.check(err == nil, "prov save: %v", err)
	rep.set("prov.archive_bytes", float64(archive.Len()))
	var loaded *prov.DB
	rep.set("prov.load_ms", medianOf(sc.rounds, func() {
		loaded, err = prov.LoadDB(bytes.NewReader(archive.Bytes()))
	})/1e6)
	if rep.check(err == nil, "prov load: %v", err) {
		rep.check(loaded.NumRows(prov.TableActivation) == db.NumRows(prov.TableActivation), "prov load lost activation rows")
	}

	fresh, err := prov.NewProvWfDB()
	if !rep.check(err == nil, "prov schema: %v", err) {
		return
	}
	app := prov.NewAppender(fresh, 0)
	n := sc.ingestRows
	t0 := time.Now()
	var ingested time.Time
	err = ingestThenClose(app, n, func() { ingested = time.Now() })
	rep.set("prov.ingest_rows_per_s", float64(n)/ingested.Sub(t0).Seconds())
	rep.set("prov.close_us", float64(time.Since(ingested).Nanoseconds())/1e3/float64(n))
	rep.check(err == nil && fresh.NumRows(prov.TableActivation) == n, "prov ingest and close: %v", err)
}

// occupancy samples the worker pool's in-use share until stop closes.
func occupancy(stop <-chan struct{}, out *float64) {
	pool := parallel.Tokens()
	var sum float64
	n := 0
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			if n > 0 {
				*out = sum / float64(n)
			}
			return
		case <-tick.C:
			if capacity, inUse, _ := pool.Occupancy(); capacity > 0 {
				sum += float64(inUse) / float64(capacity)
				n++
			}
		}
	}
}

// managedRun is one campaign run through the Manager.
type managedRun struct {
	campSample
	submitUS, queueWaitMS float64
}

// probeCampaign measures every campaign-side layer metric on one spec:
// the same campaign through the Manager (managed, when the timed pass
// already ran it), through core.Run, with wrapped activity bodies,
// with empty bodies and under the barrier runtime; then the scheduler
// sweep and the store probes on db (nil: the campaign's own database).
// want, when set, is the digest every route must reproduce.
func probeCampaign(rep *report, tr *tracer, spec campaign.Spec, managed *managedRun, want string, db *prov.DB, sc scale) error {
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	ctx := context.Background()

	// The CLI path, and what the Manager adds over calling core.Run.
	if managed == nil {
		mgr := campaign.NewManager(nil, campaign.Limits{})
		m := runManaged(rep, mgr, spec)
		mgr.Shutdown(ctx)
		managed = &m
	}
	rep.set("campaign.submit_us", managed.submitUS)
	rep.set("campaign.queue_wait_ms", managed.queueWaitMS)
	rep.set("campaign_wall_s", managed.wallS)
	rep.set("pairs_per_s", float64(managed.rows)/managed.wallS)
	rep.set("virtual_tet_s", managed.tet)
	if want != "" {
		rep.check(managed.sum == want, "campaign digest differs between routes: %s vs %s", managed.sum, want)
	}
	t0 := time.Now()
	direct, err := core.Run(cfg)
	coreWall := time.Since(t0).Seconds()
	rep.check(err == nil, "core.Run: %v", err)
	rep.check(digestCampaign(rep, direct, "core.Run").sum == managed.sum, "core.Run digest differs from the Manager's")
	rep.set("campaign.manager_overhead_ms", (managed.wallS-coreWall)*1e3)

	// The traced pass: the same campaign with every activity body in a
	// span. Its digest must match the untraced one.
	busy := newActivityBusy()
	before := readUsage()
	traced, err := runWrapped(ctx, cfg, tr, 0, busy, false)
	after := readUsage()
	rep.check(err == nil, "traced campaign: %v", err)
	ts := digestCampaign(rep, traced, "traced campaign")
	rep.check(ts.sum == managed.sum, "traced campaign digest differs from the untraced one")
	rep.checksums["campaign"] = managed.sum
	tracedWall := after.at.Sub(before.at).Seconds()
	rep.set("trace.overhead_frac", tracedWall/managed.wallS)
	var busyS float64
	for short, ns := range busy.ns {
		s := float64(ns.Load()) / 1e9
		rep.set("core."+short+"_busy_s", s)
		busyS += s
	}
	rep.set("core.activations", float64(busy.activations.Load()))
	var failures, aborted int
	for _, r := range traced.Reports {
		failures += r.Failures
		aborted += r.Aborted
	}
	rep.set("engine.injected_failures", float64(failures))
	rep.set("engine.aborted", float64(aborted))
	ops, _, written := traced.Engine.FS.Stats()
	rep.set("simfs.ops", float64(ops))
	rep.set("simfs.bytes_written", float64(written))

	// Empty bodies leave the engine, scheduler, cloud simulator, store
	// and file system: the campaign's fixed cost.
	chainBefore := readUsage()
	chain, err := runWrapped(ctx, cfg, nil, 0, nil, true)
	chainAfter := readUsage()
	rep.check(err == nil, "timing chain: %v", err)
	chainS := chainAfter.at.Sub(chainBefore.at).Seconds()
	activations := 0
	for _, r := range chain.Reports {
		activations += r.Activations
	}
	rep.set("engine.timing_chain_s", chainS)
	rep.set("engine.activations_per_s", float64(activations)/chainS)
	rep.set("engine.self_share", chainS/managed.wallS)
	rep.set("trace.unattributed_frac", 1-(busyS+chainAfter.cpu-chainBefore.cpu)/(after.cpu-before.cpu))

	barrierCfg := cfg
	barrierCfg.Runtime = engine.RuntimeBarrier
	t0 = time.Now()
	barrier, err := core.Run(barrierCfg)
	rep.set("engine.barrier_wall_s", time.Since(t0).Seconds())
	if rep.check(err == nil, "barrier runtime: %v", err) {
		rep.set("engine.barrier_tet_s", barrier.TET())
	}

	t0 = time.Now()
	series, err := core.PerfSweep(core.PerfConfig{
		Program: prep.ProgramAD4, Dataset: sc.sweep, CoresList: []int{32}, HgGuard: true,
	})
	sweepS := time.Since(t0).Seconds()
	if rep.check(err == nil && len(series.Points) == 1, "perf sweep: %v", err) {
		rep.set("sched.sweep_tet_s", series.Points[0].TET)
	}
	rep.set("sched.sweep_acts_per_s", float64(sc.sweep.NumPairs()*8)/sweepS)

	if db == nil {
		db = direct.Engine.DB
	}
	probeProv(rep, db, sc)
	return nil
}

// probeServed serves one campaign of the spec over HTTP with the query
// load beside it, for the workloads whose timed pass does not: it
// yields the http.* and query_* numbers, and checks that the served
// campaign equals the command-line one. The resident campaign the
// queries also read is the spec cut to 8 pairs.
func probeServed(rep *report, spec campaign.Spec, want string, sc scale) error {
	resident := spec
	resident.Receptors, resident.Ligands = min(spec.Receptors, 4), min(spec.Ligands, 2)
	srv, err := startServer(rep, resident)
	if err != nil {
		return err
	}
	defer srv.close()
	var tf traffic
	var newest atomic.Int64
	newest.Store(srv.resident)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.queryLoad(rep, &newest, stop, &tf)
	}()
	c := newClient(srv.base)
	sample := srv.serveOne(rep, c, spec, &newest, &tf)
	c.close()
	close(stop)
	<-done
	rep.check(sample.sum == want, "served campaign digest %s differs from the command-line one %s", sample.sum, want)
	reportTraffic(rep, &tf)
	srv.idleProbes(rep, sc.rounds*10)
	return nil
}

// reportTraffic turns one session's request timings into the http.*
// and query_* metrics.
func reportTraffic(rep *report, tf *traffic) {
	rep.dist("http.submit_ms", tf.submitMS)
	rep.dist("http.status_p50_ms", tf.statusMS)
	rep.set("http.status_p95_ms", percentile(tf.statusMS, 95))
	rep.set("http.polls", float64(len(tf.statusMS)))
	rep.dist("query_p50_ms", tf.queryMS)
	rep.set("query_p95_ms", percentile(tf.queryMS, 95))
	rep.set("http.gen_lag_p95_ms", percentile(tf.lagMS, 95))
	if len(tf.queryMS) == 0 {
		rep.check(false, "the query load sent no statement")
	}
}
