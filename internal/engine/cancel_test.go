package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloud"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/workflow"
)

// abortedRows counts hactivation rows carrying the campaign-cancelled
// abort marker and verifies every row reached a terminal status (no
// RUNNING rows may survive a cancelled run).
func abortedRows(t *testing.T, e *Engine) int {
	t.Helper()
	res, err := e.DB.Query("SELECT t.status, t.command FROM hactivation t")
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, r := range res.Rows {
		status := fmt.Sprint(r[0])
		if status == "RUNNING" {
			t.Errorf("cancelled run left a RUNNING activation: %v", r)
		}
		if strings.Contains(fmt.Sprint(r[1]), "# aborted: "+cancelReason) {
			if status != "ABORTED" {
				t.Errorf("cancel marker on non-ABORTED row: %v", r)
			}
			cancelled++
		}
	}
	return cancelled
}

// TestRunContextPreCancelled pins the deterministic fast path: a
// context cancelled before Run places anything aborts every admitted
// activation under both runtimes.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rt := range []Runtime{RuntimeDataflow, RuntimeBarrier} {
		e, err := New(Options{Cores: 4, Runtime: rt, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.RunContext(ctx, toyWorkflow(), inputRelation(6))
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("runtime %v: err = %v, want ErrCancelled", rt, err)
		}
		if rep == nil {
			t.Fatalf("runtime %v: cancelled run returned nil report", rt)
		}
		// The six source activations were admitted and must be
		// accounted for; downstream work never materialized.
		if rep.Aborted != 6 || rep.Activations != 6 {
			t.Errorf("runtime %v: activations/aborted = %d/%d, want 6/6",
				rt, rep.Activations, rep.Aborted)
		}
		if got := abortedRows(t, e); got != 6 {
			t.Errorf("runtime %v: %d cancel-aborted prov rows, want 6", rt, got)
		}
	}
}

// cancelAtPlace cancels the run from inside the dispatcher's n-th
// placement, so how far the run got is the same on every schedule.
type cancelAtPlace struct {
	sched.Scheduler
	n      int
	cancel context.CancelFunc
}

func (c *cancelAtPlace) Place(now float64, a sched.Activation, fleet []*cloud.VM) (sched.Placement, error) {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Scheduler.Place(now, a, fleet)
}

// TestRunContextCancelMidFlight cancels while bodies are blocked
// in-flight: the run must return ErrCancelled with a partial report,
// close the pending tail as ABORTED in provenance — under the barrier
// that includes the children parked for the next stage — and release
// every CPU token back to the campaign's account.
func TestRunContextCancelMidFlight(t *testing.T) {
	for _, rt := range []Runtime{RuntimeDataflow, RuntimeBarrier} {
		ctx, cancel := context.WithCancel(context.Background())
		w := toyWorkflow()
		inner := w.Activities[1].Run
		w.Activities[1].Run = func(in workflow.Tuple) (*workflow.ActivationResult, error) {
			<-ctx.Done() // in flight when the cancel lands
			return inner(in)
		}

		pool := parallel.NewPool(4)
		acct := pool.NewAccount()
		e, err := New(Options{Cores: 4, Runtime: rt, Parallelism: 2, Tokens: acct,
			Scheduler: &cancelAtPlace{Scheduler: sched.NewGreedy(), n: 3, cancel: cancel}})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.RunContext(ctx, w, inputRelation(8))
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("runtime %v: err = %v, want ErrCancelled", rt, err)
		}
		if rep == nil {
			t.Fatalf("runtime %v: cancelled run returned nil report", rt)
		}
		// Three babel activations were placed; the other five and the
		// three configprep children they spawned drain as ABORTED.
		if rep.Activations != 11 || rep.Aborted != 8 {
			t.Errorf("runtime %v: activations/aborted = %d/%d, want 11/8", rt, rep.Activations, rep.Aborted)
		}
		if got := abortedRows(t, e); got != 8 {
			t.Errorf("runtime %v: %d cancel-aborted prov rows, want 8", rt, got)
		}
		if held := acct.Held(); held != 0 {
			t.Errorf("runtime %v: campaign account still holds %d tokens after cancel", rt, held)
		}
		if inUse := pool.InUse(); inUse != 0 {
			t.Errorf("runtime %v: pool still has %d tokens out after cancel", rt, inUse)
		}
		acct.Close()
	}
}

// TestRunTokensAccountIdentical pins that routing the engine's
// fan-outs through a per-campaign token account leaves the run's
// observable results — report counts, outputs, provenance rows —
// identical to the raw global pool (virtual determinism is
// independent of worker counts).
func TestRunTokensAccountIdentical(t *testing.T) {
	pool := parallel.NewPool(2)
	acct := pool.NewAccount()
	defer acct.Close()
	base, baseRep := runRuntime(t, RuntimeDataflow, Options{Cores: 4, Parallelism: 4}, toyWorkflow(), 12)
	withAcct, acctRep := runRuntime(t, RuntimeDataflow, Options{Cores: 4, Parallelism: 4, Tokens: acct}, toyWorkflow(), 12)
	assertGoldenMatch(t, base, withAcct, baseRep, acctRep)
	if held := acct.Held(); held != 0 {
		t.Errorf("account holds %d tokens after run", held)
	}
}

// TestRunContextBackgroundUnchanged guards the refactor: Run is
// exactly RunContext(Background) and completes normally.
func TestRunContextBackgroundUnchanged(t *testing.T) {
	e, err := New(Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.RunContext(context.Background(), toyWorkflow(), inputRelation(10))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := New(Options{Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := e2.Run(toyWorkflow(), inputRelation(10))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(provRows(t, e), provRows(t, e2)) {
		t.Error("RunContext(Background) and Run produced different provenance")
	}
	if rep.Activations != rep2.Activations || len(rep.Outputs) != len(rep2.Outputs) {
		t.Errorf("reports diverge: %+v vs %+v", rep, rep2)
	}
}
