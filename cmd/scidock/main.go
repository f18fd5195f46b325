// Command scidock runs the SciDock molecular-docking virtual
// screening workflow end-to-end on the simulated HPC cloud and
// reports the execution summary, Table-3-style docking statistics and
// optional provenance queries. With -serve it instead becomes a
// resident campaign service: an HTTP/JSON API for submitting,
// monitoring, querying and cancelling many concurrent campaigns.
//
// Examples:
//
//	scidock -mode ad4 -receptors 20 -ligands 4 -cores 32
//	scidock -mode adaptive -receptors 50 -ligands 8 -cores 64 -effort campaign
//	scidock -mode vina -receptors 10 -ligands 2 -query "SELECT count(*) FROM ddocking"
//	scidock -serve 127.0.0.1:8080
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/stats"
)

func main() {
	var (
		mode      = flag.String("mode", "ad4", "docking mode: ad4, vina or adaptive")
		receptors = flag.Int("receptors", 10, "number of receptors from Table 2 (1-238)")
		ligands   = flag.Int("ligands", 2, "number of ligands from Table 2 (1-42)")
		cores     = flag.Int("cores", 16, "virtual worker cores (the paper used 2-128)")
		effort    = flag.String("effort", "campaign", "docking effort preset: smoke, campaign or quick")
		seed      = flag.Int64("seed", 2014, "campaign seed")
		hgGuard   = flag.Bool("hgguard", true, "enable the Hg steering guard of §V.C")
		failures  = flag.Bool("failures", true, "inject ~10% transient activation failures")
		monitor   = flag.Bool("monitor", false, "print runtime-steering snapshots after each stage")
		query     = flag.String("query", "", "SQL to run against the provenance database afterwards")
		serve     = flag.String("serve", "", "serve the campaign HTTP API on this address (e.g. 127.0.0.1:8080) instead of running one campaign")
	)
	flag.Parse()

	var err error
	if *serve != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = runServe(ctx, *serve)
		stop()
	} else {
		err = run(*mode, *receptors, *ligands, *cores, *effort, *seed, *hgGuard, *failures, *monitor, *query)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "scidock:", err)
		os.Exit(1)
	}
}

// validateChoice rejects a flag value outside its enumeration with a
// usage message listing the valid values.
func validateChoice(flagName, v string, valid ...string) error {
	for _, ok := range valid {
		if v == ok {
			return nil
		}
	}
	return fmt.Errorf("invalid -%s %q: valid values are %s", flagName, v, strings.Join(valid, ", "))
}

// validateFlags checks every enumerated or bounded flag up front —
// before any dataset or engine work — so a typo fails in microseconds
// with a usage message instead of deep inside the run.
func validateFlags(mode string, receptors, ligands, cores int, effort string) error {
	if err := validateChoice("mode", mode, "ad4", "vina", "adaptive"); err != nil {
		return err
	}
	if err := validateChoice("effort", effort, "smoke", "campaign", "quick"); err != nil {
		return err
	}
	if cores < 1 {
		return fmt.Errorf("invalid -cores %d: must be a positive core count", cores)
	}
	if receptors < 1 {
		return fmt.Errorf("invalid -receptors %d: must be positive", receptors)
	}
	if ligands < 1 {
		return fmt.Errorf("invalid -ligands %d: must be positive", ligands)
	}
	return nil
}

func run(mode string, receptors, ligands, cores int, effort string, seed int64, hgGuard, failures, monitor bool, query string) error {
	if err := validateFlags(mode, receptors, ligands, cores, effort); err != nil {
		return err
	}
	spec := campaign.Spec{
		Mode: mode, Receptors: receptors, Ligands: ligands, Cores: cores,
		Effort: effort, Seed: seed,
		DisableHgGuard: !hgGuard, DisableFailures: !failures,
	}
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	// A -seed 0 must stay 0; the spec's JSON zero-value default (2014)
	// is for the service API.
	cfg.Seed = seed
	ds := cfg.Dataset
	if monitor {
		// Runtime steering (§IV.B): after each stage, query the live
		// provenance database for failures so the scientist can react
		// before the workflow ends.
		cfg.OnStageComplete = func(ev engine.StageEvent) {
			problems := "?"
			if n, err := campaign.ProblemCount(ev.Engine.DB); err == nil {
				problems = fmt.Sprint(n)
			}
			fmt.Printf("  [steering] stage %-14s done at +%s: %d activations, %d retries, problem activations so far: %s\n",
				ev.Activity, stats.FormatDuration(ev.Clock), ev.Stats.Activations,
				ev.Stats.Failures, problems)
		}
	}

	fmt.Printf("SciDock %s: %d receptors × %d ligands = %d pairs on %d cores\n",
		cfg.Mode, receptors, ligands, ds.NumPairs(), cores)

	// The one-shot CLI is a thin client of the same campaign manager
	// the -serve API uses: submit one campaign, wait for it.
	m := campaign.NewManager(nil, campaign.Limits{})
	id, err := m.SubmitConfig(spec, cfg)
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM cancel the campaign instead of killing the
	// process mid-write: the engine closes pending activations as
	// ABORTED and the partial report still prints below.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-sig:
			fmt.Fprintln(os.Stderr, "scidock: signal received, cancelling campaign — partial report follows")
			if _, cerr := m.Cancel(id); cerr != nil {
				fmt.Fprintln(os.Stderr, "scidock: cancel:", cerr)
			}
		case <-watchDone:
		}
	}()

	camp, err := m.Wait(context.Background(), id)
	cancelled := err != nil && errors.Is(err, engine.ErrCancelled)
	if err != nil && !cancelled {
		return err
	}
	if cancelled {
		fmt.Println("\ncampaign cancelled; partial results:")
	}

	for _, rep := range camp.Reports {
		fmt.Printf("\nworkflow %d: TET %s, %d activations, %d transient failures recovered, %d aborted\n",
			rep.WorkflowID, stats.FormatDuration(rep.TET), rep.Activations, rep.Failures, rep.Aborted)
		for _, a := range rep.PerActivity {
			fmt.Printf("  %-14s n=%-5d failures=%-3d stage=%s\n",
				a.Tag, a.Activations, a.Failures, stats.FormatDuration(a.StageSecs))
		}
	}
	fmt.Printf("\ncampaign TET: %s   simulated EC2 bill: $%.2f   shared FS: %d bytes\n",
		stats.FormatDuration(camp.TET()), camp.Engine.Cluster.Cost(), camp.Engine.FS.TotalBytes())

	rows, err := core.Table3(camp.Engine.DB, ds.Ligands)
	if err != nil {
		return err
	}
	fmt.Println("\nDocking statistics (Table 3 layout):")
	fmt.Print(core.FormatTable3(rows))
	top, err := core.TopInteractions(camp.Engine.DB, 3)
	if err != nil {
		return err
	}
	if len(top) > 0 {
		fmt.Println("best interactions:")
		for _, t := range top {
			fmt.Println("  " + t)
		}
	}

	if query != "" {
		res, err := camp.Engine.DB.Query(query)
		if err != nil {
			return err
		}
		fmt.Println("\n" + res.Format())
	}
	return nil
}

// serveListening, when non-nil (tests), receives the bound address
// once the listener is up.
var serveListening func(string)

// Connection deadlines of the campaign API. A request body is at most
// 1 MiB (the handler's MaxBytesReader), so readTimeout bounds how long
// a slow client can hold a handler reading it; idleTimeout closes
// keep-alive connections nobody uses. There is no write timeout yet: a
// /query response takes as long as its query, which has no budget.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newServer is the HTTP server runServe runs the campaign API on.
func newServer(m *campaign.Manager) *http.Server {
	return &http.Server{
		Handler:           campaign.NewHandler(m),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// runServe runs the resident campaign service until ctx is cancelled
// (SIGINT/SIGTERM in main), then drains: admissions stop, queued
// campaigns are cancelled, running ones get a grace period to finish
// before being cancelled, and the HTTP server shuts down cleanly.
func runServe(ctx context.Context, addr string) error {
	m := campaign.NewManager(nil, campaign.Limits{})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("scidock: serving campaign API on %s\n", ln.Addr())
	if serveListening != nil {
		serveListening(ln.Addr().String())
	}

	srv := newServer(m)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Println("scidock: draining campaigns before shutdown")
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), 30*time.Second)
	m.Shutdown(drainCtx)
	cancelDrain()
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	fmt.Println("scidock: shutdown complete")
	return nil
}
