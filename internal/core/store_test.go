package core

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/prep"
	"repro/internal/sched"
	"repro/internal/workflow"
)

// latticeAddr is the address of the first value of one of a Maps'
// unexported lattices ("elec", "desolv"), read through reflection so
// the test can tell a shared backing array from an equal copy.
func latticeAddr(m *grid.Maps, field string) uintptr {
	return reflect.ValueOf(m).Elem().FieldByName(field).Pointer()
}

func memoLen(m *sync.Map) int {
	n := 0
	m.Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestStoreSharesReceptorProducts runs an adaptive campaign with eight
// workers (under -race in the gate) and checks what the store promises:
// one prepared receptor per receptor whatever the number of ligands,
// type sets and workflows, and one .fld per receptor and type set; and
// what the workflows' builders own: one lattice set per receptor that
// docks with AD4, none for the receptor the size filter sends to Vina,
// and ligand views that alias that set's arrays instead of owning
// lattices.
func TestStoreSharesReceptorProducts(t *testing.T) {
	receptors := []string{"1AEC", "1AIM"}    // one large (Vina), one small (AD4)
	ligands := []string{"042", "074", "0D6"} // two distinct type sets over a 6-type union
	camp, err := NewCampaign(Config{
		Mode:    ModeAdaptive,
		Dataset: data.Dataset{Receptors: receptors, Ligands: ligands},
		Cores:   8, Effort: SmokeEffort(), Seed: 3, HgGuard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := camp.Config.store
	if st == nil {
		t.Fatal("NewCampaign left the config without a store")
	}
	for _, p := range []prep.Program{prep.ProgramAD4, prep.ProgramVina} {
		if newBuilder(camp.Config, p).store != st {
			t.Fatalf("%s workflow would not share the campaign's store", p)
		}
	}
	builders := map[prep.Program]*builder{}
	err = camp.execute(context.Background(), func(cfg Config, p prep.Program) (*workflow.Workflow, error) {
		b := newBuilder(cfg, p)
		builders[p] = b
		return b.workflow()
	})
	if err != nil {
		t.Fatal(err)
	}
	if camp.Config.store != nil {
		t.Error("Execute returned with the store still attached to the campaign")
	}
	ad4, vina := builders[prep.ProgramAD4], builders[prep.ProgramVina]

	if got := memoLen(&st.receptors.m); got != len(receptors) {
		t.Errorf("%d prepared receptors, want %d (one per receptor across both workflows)", got, len(receptors))
	}
	if got := memoLen(&st.flds.m); got != 2*len(receptors) {
		t.Errorf("%d .fld renderings, want %d (receptors × distinct type sets)", got, 2*len(receptors))
	}
	if got := memoLen(&ad4.lattices.m) + memoLen(&vina.lattices.m); got != 1 {
		t.Errorf("%d lattice sets, want 1 (one grid.Generate pass, for the one receptor that docks with AD4)", got)
	}
	if got := memoLen(&ad4.views.m) + memoLen(&vina.views.m); got != 2 {
		t.Errorf("%d views, want 2 (AD4 receptors × distinct type sets)", got)
	}
	if got := memoLen(&ad4.indexes.m) + memoLen(&vina.indexes.m); got != 1 {
		t.Errorf("%d Vina receptor indexes, want 1 (only the large receptor docks with Vina)", got)
	}
	if got, want := typesKey(st.probeUnion()), "C,HD,N,NA,OA,SA"; got != want {
		t.Errorf("probe union %s, want %s", got, want)
	}
	for _, rec := range receptors {
		if prep.FilterDocking(data.ReceptorMeta(rec)) != prep.ProgramAD4 {
			continue
		}
		set, err := ad4.latticeSet(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, lig := range ligands {
			pl, err := st.preparedLigand(lig)
			if err != nil {
				t.Fatal(err)
			}
			view, err := ad4.gridMaps(rec, pl.Mol.AtomTypes())
			if err != nil {
				t.Fatal(err)
			}
			if typesKey(view.Types()) != typesKey(pl.Mol.AtomTypes()) {
				t.Errorf("%s/%s: view types %v, ligand types %v", rec, lig, view.Types(), pl.Mol.AtomTypes())
			}
			for _, f := range []string{"elec", "desolv"} {
				if latticeAddr(view, f) != latticeAddr(set, f) {
					t.Errorf("%s/%s: view owns its %s lattice instead of aliasing the receptor's", rec, lig, f)
				}
			}
			// The .fld AutoGrid staged before any lattice existed is the
			// one the maps it names would write.
			fld, err := st.fld(rec, pl.Mol.AtomTypes())
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := view.WriteFLD(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fld, want.Bytes()) {
				t.Errorf("%s/%s: staged .fld differs from the view's WriteFLD:\n%s\nwant:\n%s", rec, lig, fld, want.Bytes())
			}
		}
	}
	res, err := camp.Engine.DB.Query("SELECT count(*) FROM ddocking")
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].(int64); n != int64(len(receptors)*len(ligands)) {
		t.Errorf("%d pairs docked, want %d", n, len(receptors)*len(ligands))
	}
}

// TestAD4LatticesDieWithTheirWorkflow runs an adaptive campaign and
// watches the lattice sets from inside the engine's stage hook: when
// the AD4 workflow's docking stage closes, finalizers go on every set
// and view its builder made; when the Vina workflow's docking stage
// closes — the campaign and its store still running — no lattice set
// exists for the receptor the size filter sent to Vina, and every AD4
// set has been collected.
func TestAD4LatticesDieWithTheirWorkflow(t *testing.T) {
	const vinaRec, ad4Rec = "1AEC", "1AIM"
	var (
		mu       sync.Mutex
		cur      *builder // the builder of the workflow running now
		ad4Keys  []string // the AD4 builder's lattice set keys
		vinaSets int      // lattice sets the Vina builder made
		watched  int      // finalizers set on AD4 sets and views
		checked  bool     // the Vina docking stage closed
		alive    int      // AD4 sets and views still reachable then
		dead     atomic.Int64
	)
	keys := func(m *sync.Map) []string {
		var out []string
		m.Range(func(k, _ any) bool { out = append(out, k.(string)); return true })
		sort.Strings(out)
		return out
	}
	hook := func(ev engine.StageEvent) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Activity {
		case sched.TagDockAD4:
			ad4Keys = keys(&cur.lattices.m)
			for _, m := range []*sync.Map{&cur.lattices.m, &cur.views.m} {
				m.Range(func(_, e any) bool {
					if maps := e.(*memoEntry[*grid.Maps]).val; maps != nil {
						runtime.SetFinalizer(maps, func(*grid.Maps) { dead.Add(1) })
						watched++
					}
					return true
				})
			}
		case sched.TagDockVina:
			vinaSets = memoLen(&cur.lattices.m)
			deadline := time.Now().Add(10 * time.Second)
			for dead.Load() < int64(watched) && time.Now().Before(deadline) {
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
			checked, alive = true, watched-int(dead.Load())
		}
	}
	camp, err := NewCampaign(Config{
		Mode:    ModeAdaptive,
		Dataset: data.Dataset{Receptors: []string{vinaRec, ad4Rec}, Ligands: []string{"042", "074", "0D6"}},
		Cores:   8, Effort: SmokeEffort(), Seed: 5, HgGuard: true, DisableFailures: true,
		OnStageComplete: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	err = camp.execute(context.Background(), func(cfg Config, p prep.Program) (*workflow.Workflow, error) {
		b := newBuilder(cfg, p)
		mu.Lock()
		cur = b
		mu.Unlock()
		return b.workflow()
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if !checked {
		t.Fatal("the Vina workflow's docking stage never closed")
	}
	if want := []string{ad4Rec}; !reflect.DeepEqual(ad4Keys, want) {
		t.Errorf("AD4 workflow built lattice sets %v, want %v (none for Vina's %s)", ad4Keys, want, vinaRec)
	}
	if vinaSets != 0 {
		t.Errorf("the Vina workflow built %d lattice sets, want 0 (no reader runs there)", vinaSets)
	}
	if watched == 0 {
		t.Fatal("the AD4 workflow built no lattice set to watch")
	}
	if alive != 0 {
		t.Errorf("%d of %d AD4 lattice sets and views still reachable while the Vina workflow docks", alive, watched)
	}
}

// TestStoreLigandOutsideDataset: a ligand whose types the probe union
// lacks (ExportComplex's case, or an input relation wider than the
// dataset) gets a lattice set of its own instead of an error.
func TestStoreLigandOutsideDataset(t *testing.T) {
	b := newBuilder(Config{Effort: SmokeEffort(), Dataset: data.Dataset{Ligands: []string{"015"}}}, prep.ProgramAD4)
	inside, err := b.gridMaps("1AIM", []chem.AtomType{chem.TypeC, chem.TypeOA})
	if err != nil {
		t.Fatal(err)
	}
	outside, err := b.gridMaps("1AIM", []chem.AtomType{chem.TypeC, chem.TypeSA})
	if err != nil {
		t.Fatalf("ligand with a type outside the union: %v", err)
	}
	if typesKey(outside.Types()) != "C,SA" {
		t.Errorf("outside view types %v", outside.Types())
	}
	if latticeAddr(inside, "elec") == latticeAddr(outside, "elec") {
		t.Error("outside ligand's view aliases the union set it is not covered by")
	}
}

// TestStoreFailedLigandSkippedInUnion: a ligand whose preparation fails
// contributes nothing to the probe union, does not stop the other
// ligands from docking, and still fails its own activations.
func TestStoreFailedLigandSkippedInUnion(t *testing.T) {
	receptors := []string{"1AIM", "1ATK"}
	camp, err := NewCampaign(Config{
		Mode:    ModeAD4,
		Dataset: data.Dataset{Receptors: receptors, Ligands: []string{"0E6", "042", "015"}},
		Cores:   4, Effort: SmokeEffort(), HgGuard: true, DisableFailures: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := camp.Config.store
	// Ligand preparation cannot fail on the synthetic dataset, so plant
	// the failure where PrepareLigand's would be remembered.
	if _, err := st.prepared.get("0E6", func() (*preparedLigand, error) {
		return nil, errors.New("prep: ligand 0E6: planted failure")
	}); err == nil {
		t.Fatal("planted failure not remembered")
	}
	if err := camp.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := typesKey(st.probeUnion()), "C,HD,N,NA,OA"; got != want {
		t.Errorf("probe union %s, want %s (0E6's SA must not be in it)", got, want)
	}
	failed, err := camp.Engine.DB.Query("SELECT command FROM hactivation WHERE status = 'FAILED'")
	if err != nil {
		t.Fatal(err)
	}
	if len(failed.Rows) != len(receptors) {
		t.Errorf("%d FAILED activations, want %d (0E6's ligand preparation, once per receptor)", len(failed.Rows), len(receptors))
	}
	for _, row := range failed.Rows {
		if cmd := row[0].(string); !strings.Contains(cmd, "prepare_ligand4.py") || !strings.Contains(cmd, "planted failure") {
			t.Errorf("unexpected FAILED activation: %s", cmd)
		}
	}
	docked, err := camp.Engine.DB.Query("SELECT count(*) FROM ddocking WHERE ligand <> '0E6'")
	if err != nil {
		t.Fatal(err)
	}
	if n := docked.Rows[0][0].(int64); n != int64(2*len(receptors)) {
		t.Errorf("%d pairs docked, want %d", n, 2*len(receptors))
	}
}

// TestStoreHgReceptorStillLoops: the memoized preparation failure of
// an Hg receptor surfaces as engine.ErrLoop on every activation that
// asks, not only the first.
func TestStoreHgReceptorStillLoops(t *testing.T) {
	var hg string
	for _, code := range data.ReceptorCodes {
		if data.ReceptorMeta(code).ContainsHg {
			hg = code
			break
		}
	}
	if hg == "" {
		t.Fatal("no Hg receptor in dataset")
	}
	b := newBuilder(Config{Effort: SmokeEffort(), ExpDir: "/exp/"}, prep.ProgramAD4)
	for i := 0; i < 2; i++ {
		_, err := b.runRecPrep(workflow.Tuple{FieldReceptor: hg, FieldLigand: "042", FieldExpDir: "/exp/"})
		if !errors.Is(err, engine.ErrLoop) {
			t.Fatalf("call %d: Hg receptor preparation returned %v, want engine.ErrLoop", i, err)
		}
	}
}

// TestStoreFootprintDiesWithExecute: once Execute has returned — done
// or cancelled — nothing reachable from the Campaign holds a prepared
// receptor or ligand: finalizers on both run while the Campaign is
// alive. (The store holds no lattice set: TestAD4LatticesDieWithTheirWorkflow
// watches those go with the AD4 workflow.)
func TestStoreFootprintDiesWithExecute(t *testing.T) {
	cfg := smokeConfig(t, ModeAD4, 2, 2)
	for _, cancelled := range []bool{false, true} {
		camp, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Fill the store the way a run does, and watch two of its products.
		finalized := make(chan string, 2) // one send per watched product
		func(st *store) {
			rec, err := st.preparedReceptor(cfg.Dataset.Receptors[0])
			if err != nil {
				t.Fatal(err)
			}
			lig, err := st.preparedLigand(cfg.Dataset.Ligands[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.fld(cfg.Dataset.Receptors[0], lig.Mol.AtomTypes()); err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(rec, func(*preparedReceptor) { finalized <- "receptor" })
			runtime.SetFinalizer(lig, func(*preparedLigand) { finalized <- "ligand" })
		}(camp.Config.store)

		ctx, cancel := context.WithCancel(context.Background())
		if cancelled {
			cancel()
		}
		err = camp.Execute(ctx)
		cancel()
		if cancelled != errors.Is(err, engine.ErrCancelled) {
			t.Fatalf("cancelled=%v: Execute returned %v", cancelled, err)
		}
		runtime.GC()
		runtime.GC()
		for i := 0; i < 2; i++ {
			select {
			case <-finalized:
			case <-time.After(10 * time.Second):
				t.Fatalf("cancelled=%v: a store product is still reachable after Execute returned", cancelled)
			}
		}
		runtime.KeepAlive(camp)
	}
}

// TestStoreReceptorFootprint bounds the heap the receptor-side products
// retain per receptor: the store's prepared receptor, an AD4 builder's
// lattice set over the probe union and, for a receptor the size filter
// sends to Vina, a Vina builder's receptor index — the most a campaign
// holds per receptor while a workflow runs. Ten receptors at campaign effort,
// five of them Vina's. When Vina's fine-cell lists copied every listed
// atom (32 bytes a listing) the store retained 0.665 MB per receptor;
// with int16 indices into the packed atoms, 0.320 MB; 0.314 MB after
// later changes, with float64 lattices; with float32 lattices, 0.220
// MB. The budget sits between the last two, so a lattice that goes
// back to float64 fails it.
func TestStoreReceptorFootprint(t *testing.T) {
	const receptors, budget = 10, 0.27 * (1 << 20)
	var recs []string
	for _, code := range data.ReceptorCodes {
		if !data.ReceptorMeta(code).ContainsHg {
			recs = append(recs, code)
		}
		if len(recs) == receptors {
			break
		}
	}
	cfg := Config{
		Mode:    ModeAdaptive,
		Dataset: data.Dataset{Receptors: recs, Ligands: data.LigandCodes[:4]},
		Effort:  CampaignEffort(),
	}
	var vinaRecs []string // the receptors the size filter sends to Vina
	for _, rec := range recs {
		if prep.FilterDocking(data.ReceptorMeta(rec)) == prep.ProgramVina {
			vinaRecs = append(vinaRecs, rec)
		}
	}
	fill := func(st *store) []*builder {
		ad4 := &builder{cfg: cfg, program: prep.ProgramAD4, store: st}
		vina := &builder{cfg: cfg, program: prep.ProgramVina, store: st}
		for _, rec := range recs {
			if _, err := ad4.latticeSet(rec, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, rec := range vinaRecs {
			if _, err := vina.vinaIndex(rec); err != nil {
				t.Fatal(err)
			}
		}
		return []*builder{ad4, vina}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	fill(newStore(cfg)) // warm-up: radial tables and lazily built globals
	st := newStore(cfg)
	st.probeUnion() // the prepared ligands are not receptor-side
	before := heap()
	builders := fill(st)
	after := heap()
	runtime.KeepAlive(builders)
	per := (float64(after) - float64(before)) / receptors
	t.Logf("heap retained per receptor: %.3f MB (%d of %d receptors dock with Vina)", per/(1<<20), len(vinaRecs), receptors)
	if per > budget {
		t.Errorf("the store retains %.3f MB per receptor, budget %.3f MB", per/(1<<20), budget/(1<<20))
	}
}
