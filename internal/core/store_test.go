package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chem"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/prep"
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
// one prepared receptor and one lattice set per receptor whatever the
// number of ligands, type sets and workflows, and ligand views that
// alias that set's arrays instead of owning lattices.
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
	if err := camp.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if camp.Config.store != nil {
		t.Error("Execute returned with the store still attached to the campaign")
	}

	if got := memoLen(&st.receptors.m); got != len(receptors) {
		t.Errorf("%d prepared receptors, want %d (one per receptor across both workflows)", got, len(receptors))
	}
	if got := memoLen(&st.lattices.m); got != len(receptors) {
		t.Errorf("%d lattice sets, want %d (one grid.Generate pass per receptor)", got, len(receptors))
	}
	if got := memoLen(&st.views.m); got != 2*len(receptors) {
		t.Errorf("%d views, want %d (receptors × distinct type sets)", got, 2*len(receptors))
	}
	if got := memoLen(&st.indexes.m); got != 1 {
		t.Errorf("%d Vina receptor indexes, want 1 (only the large receptor docks with Vina)", got)
	}
	if got, want := typesKey(st.probeUnion()), "C,HD,N,NA,OA,SA"; got != want {
		t.Errorf("probe union %s, want %s", got, want)
	}
	for _, rec := range receptors {
		set, err := st.latticeSet(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, lig := range ligands {
			pl, err := st.preparedLigand(lig)
			if err != nil {
				t.Fatal(err)
			}
			view, err := st.gridMaps(rec, pl.Mol.AtomTypes())
			if err != nil {
				t.Fatal(err)
			}
			if typesKey(view.maps.Types()) != typesKey(pl.Mol.AtomTypes()) {
				t.Errorf("%s/%s: view types %v, ligand types %v", rec, lig, view.maps.Types(), pl.Mol.AtomTypes())
			}
			for _, f := range []string{"elec", "desolv"} {
				if latticeAddr(view.maps, f) != latticeAddr(set, f) {
					t.Errorf("%s/%s: view owns its %s lattice instead of aliasing the receptor's", rec, lig, f)
				}
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

// TestStoreLigandOutsideDataset: a ligand whose types the probe union
// lacks (ExportComplex's case, or an input relation wider than the
// dataset) gets a lattice set of its own instead of an error.
func TestStoreLigandOutsideDataset(t *testing.T) {
	st := newStore(Config{Effort: SmokeEffort(), Dataset: data.Dataset{Ligands: []string{"015"}}})
	inside, err := st.gridMaps("1AIM", []chem.AtomType{chem.TypeC, chem.TypeOA})
	if err != nil {
		t.Fatal(err)
	}
	outside, err := st.gridMaps("1AIM", []chem.AtomType{chem.TypeC, chem.TypeSA})
	if err != nil {
		t.Fatalf("ligand with a type outside the union: %v", err)
	}
	if typesKey(outside.maps.Types()) != "C,SA" {
		t.Errorf("outside view types %v", outside.maps.Types())
	}
	if latticeAddr(inside.maps, "elec") == latticeAddr(outside.maps, "elec") {
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
// or cancelled — nothing reachable from the Campaign holds a lattice
// set or a view: finalizers on both run while the Campaign is alive.
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
			view, err := st.gridMaps(cfg.Dataset.Receptors[0], []chem.AtomType{chem.TypeC})
			if err != nil {
				t.Fatal(err)
			}
			set, err := st.latticeSet(cfg.Dataset.Receptors[0], nil)
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(view.maps, func(*grid.Maps) { finalized <- "view" })
			runtime.SetFinalizer(set, func(*grid.Maps) { finalized <- "lattice set" })
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

// TestStoreReceptorFootprint bounds the heap the receptor-side store
// products retain per receptor: the prepared receptor, the lattice set
// over the probe union and, for a receptor the size filter sends to
// Vina, Vina's receptor index — what an adaptive campaign keeps per
// receptor until Execute returns. Ten receptors at campaign effort,
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
	fill := func(st *store) {
		for _, rec := range recs {
			if _, err := st.latticeSet(rec, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, rec := range vinaRecs {
			if _, err := st.vinaIndex(rec); err != nil {
				t.Fatal(err)
			}
		}
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
	fill(st)
	after := heap()
	runtime.KeepAlive(st)
	per := (float64(after) - float64(before)) / receptors
	t.Logf("heap retained per receptor: %.3f MB (%d of %d receptors dock with Vina)", per/(1<<20), len(vinaRecs), receptors)
	if per > budget {
		t.Errorf("the store retains %.3f MB per receptor, budget %.3f MB", per/(1<<20), budget/(1<<20))
	}
}
