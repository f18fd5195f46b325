package prov_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/prov"
)

// seedSQL is every SQL string the repository issues, with formatted
// parameters filled in, plus the queries the engine and analysis tests
// ask of live provenance and the prov tests' own query shapes. Exported
// constants are referenced; every other production query carries a
// comment pointing here, so an edit to it updates its copy below.
var seedSQL = append(append([]string(nil), prov.PROVNSQL...), []string{
	// experiments: Figures 5, 6, 10 and 11, Table 3's headline counts.
	experiments.Query1SQL,
	experiments.Query2SQL,
	`SELECT extract ('epoch' from (t.endtime-t.starttime))
FROM hworkflow w, hactivity a, hactivation t
WHERE w.wkfid = a.wkfid
AND a.actid = t.actid
AND w.wkfid = 1
ORDER BY t.endtime`,
	`SELECT a.tag,
count(*),
avg(extract ('epoch' from (t.endtime-t.starttime))),
sum(extract ('epoch' from (t.endtime-t.starttime)))
FROM hworkflow w, hactivity a, hactivation t
WHERE w.wkfid = a.wkfid
AND a.actid = t.actid
AND w.wkfid = 1
GROUP BY a.tag
ORDER BY sum(extract ('epoch' from (t.endtime-t.starttime))) DESC`,
	"SELECT count(*) FROM ddocking WHERE program = 'autodock4' AND feb < 0",
	// core: table3.go and calibrate.go.
	"SELECT count(*), avg(feb) FROM ddocking WHERE ligand = '0E6' AND program = 'vina' AND feb < 0",
	"SELECT count(*), avg(rmsd) FROM ddocking WHERE ligand = '0E6' AND program = 'autodock4'",
	"SELECT receptor, ligand, feb FROM ddocking WHERE feb < 0 ORDER BY feb ASC LIMIT 3",
	"SELECT feb FROM ddocking",
	// analysis.
	"SELECT program, count(*) FROM ddocking GROUP BY program ORDER BY program",
	"SELECT count(*), min(feb), avg(feb) FROM ddocking WHERE program = 'vina' AND feb < 0",
	`SELECT a.receptor, a.ligand, a.feb, v.feb
FROM ddocking a, ddocking v
WHERE a.receptor = v.receptor AND a.ligand = v.ligand
AND a.program = 'autodock4' AND v.program = 'vina'`,
	`SELECT receptor, count(*), min(feb)
FROM ddocking WHERE feb < 0
GROUP BY receptor`,
	// campaign's steering query (Status, scidock -monitor) and
	// scidock's -query example.
	campaign.ProblemCountSQL,
	"SELECT count(*) FROM ddocking",
	// examples, cmd/provq and the served benchmark.
	`SELECT receptor, count(*), avg(feb)
FROM ddocking WHERE feb < 0
GROUP BY receptor
ORDER BY avg(feb) ASC
LIMIT 5`,
	`SELECT a.tag, count(*)
FROM hactivity a, hactivation t
WHERE a.actid = t.actid AND t.status = 'ABORTED'
GROUP BY a.tag`,
	"SELECT command FROM hactivation WHERE status = 'ABORTED' LIMIT 3",
	"SELECT receptor, ligand, feb, rmsd, nruns FROM ddocking",
	"SELECT receptor, ligand, feb FROM ddocking WHERE feb < 0 ORDER BY feb LIMIT 5",
	"SELECT receptor, ligand, feb FROM ddocking ORDER BY feb LIMIT 5",
	"SELECT status, count(*) FROM hactivation GROUP BY status",
	"SELECT taskid, status FROM hactivation WHERE taskid = 1",
	"SELECT receptor, ligand, program, feb, rmsd, nruns FROM ddocking ORDER BY receptor, ligand, program",
	"SELECT count(*) FROM hactivation WHERE status = 'RUNNING'",
	// engine tests.
	"SELECT t.status, t.command FROM hactivation t",
	"SELECT count(*) FROM hactivation",
	"SELECT sum(failures) FROM hactivation",
	"SELECT count(*) FROM hactivation WHERE endtime < starttime",
	"SELECT max(extract('epoch' from endtime)) FROM hactivation",
	"SELECT fdir, fname, fsize FROM hfile",
	`SELECT vmid,
extract('epoch' from starttime),
extract('epoch' from endtime)
FROM hactivation WHERE status = 'FINISHED' ORDER BY vmid, starttime`,
	`SELECT r.reltype, count(*)
FROM hrelation r GROUP BY r.reltype ORDER BY r.reltype`,
	`SELECT a.tag, r.relname
FROM hactivity a, hrelation r
WHERE a.actid = r.actid AND r.reltype = 'Input'
ORDER BY a.actid`,
	"SELECT t.status, count(*) FROM hactivation t GROUP BY t.status ORDER BY t.status",
	"SELECT t.taskid, t.status, t.starttime, t.endtime, t.vmid, t.failures, t.command FROM hactivation t ORDER BY t.taskid",
	`SELECT a.tag, min(extract ('epoch' from t.starttime)), max(extract ('epoch' from t.endtime))
FROM hactivity a, hactivation t WHERE a.actid = t.actid GROUP BY a.tag`,
	`SELECT count(*)
FROM hactivity a, hactivation t, hactivity a2, hactivation t2
WHERE a.actid = t.actid AND a2.actid = t2.actid
AND a.tag = 'dock' AND a2.tag = 'src'
AND extract ('epoch' from (t2.endtime-t.starttime)) > 0`,
	"SELECT t.actid, t.status, t.failures, t.command FROM hactivation t",
	"SELECT d.receptor, d.ligand, d.program, d.feb, d.rmsd, d.nruns FROM ddocking d",
	"SELECT status, command FROM hactivation WHERE status = 'ABORTED'",
	`SELECT extract('epoch' from (endtime - starttime))
FROM hactivation WHERE status = 'ABORTED'`,
	"SELECT command FROM hactivation WHERE status = 'FAILED'",
	"SELECT command FROM hactivation WHERE status = 'FAILED' ORDER BY command",
	"SELECT count(*) FROM hworkflow",
	`SELECT count(*)
FROM hactivity a, hactivation t
WHERE a.actid = t.actid AND a.tag = 'babel' AND t.wkfid = 1`,
	"SELECT min(extract('epoch' from starttime)) FROM hactivation WHERE wkfid = 2",
	"SELECT max(extract('epoch' from endtime)) FROM hactivation WHERE wkfid = 1",
	`SELECT a.wkfid, a.tag, t.status
FROM hactivity a, hactivation t WHERE a.actid = t.actid`,
	"SELECT count(*) FROM ddocking WHERE ligand <> '0E6'",
	// Arithmetic over aggregates.
	"SELECT max(endtime) - min(starttime) FROM hactivation",
	"SELECT count(*) + 1 FROM hactivation WHERE taskid = 99",
	// The prov tests' query shapes, on the random tables.
	"SELECT count(*), min(id), max(id) FROM t",
	"SELECT val FROM t WHERE id = 3",
	"SELECT count(*) FROM t WHERE val = 1.5",
	"SELECT count(*) FROM t WHERE grp = 'b'",
	"SELECT taskid FROM hactivation WHERE actid <= 2 AND taskid > 3",
	"SELECT taskid FROM hactivation LIMIT 2",
	"SELECT count(*), min(taskid) FROM hactivation WHERE actid = 999",
	"SELECT fsize / 2 AS half, fsize * 2 dbl, fsize + 1 - 1 FROM hfile WHERE fileid = 3",
	"SELECT taskid FROM hactivation GROUP BY taskid+1",
	"SELECT wkfid FROM hworkflow, hactivity",
	"SELECT extract('century' from starttime) FROM hactivation",
	"SELECT status, failures FROM hactivation WHERE taskid = 1",
	"SELECT ligand, count(*), avg(feb) FROM ddocking WHERE feb < 0 GROUP BY ligand ORDER BY ligand",
	"SELECT actid, taskid FROM hactivation ORDER BY actid DESC, taskid ASC",
	"SELECT taskid FROM hactivation WHERE (actid = 1 OR actid = 2) AND taskid > 2",
	"SELECT taskid FROM hactivation WHERE actid NOT IN (1, 3)",
	"SELECT taskid FROM hactivation WHERE (taskid + 1) > 6",
	"SELECT fname FROM hfile WHERE fname NOT LIKE '%.dlg'",
	"SELECT taskid FROM hactivation WHERE NOT (actid = 1 OR actid = 2)",
	"SELECT fname FROM hfile WHERE fname IN ('GOL_4C5P.dlg', 'missing')",
	`SELECT t.taskid
FROM hactivity a, hactivation t
WHERE a.actid = t.actid AND (a.tag = 'babel' OR a.tag = 'autodock4')
ORDER BY t.taskid`,
	"SELECT count(DISTINCT actid), count(actid) FROM hactivation",
	"SELECT status, count(DISTINCT vmid) FROM hactivation GROUP BY status",
	"SELECT status, count(*), sum(failures) FROM hactivation GROUP BY status",
}...)

// FuzzQuery holds the planner to the reference executor: for any SQL
// over a database filled from seed, neither panics and both give the
// same result (or both fail).
func FuzzQuery(f *testing.F) {
	for _, sql := range seedSQL {
		f.Add(int64(0), sql) // no NULLs
		f.Add(int64(1), sql) // NULLs in every column
	}
	f.Fuzz(func(t *testing.T, seed int64, sql string) {
		db, err := prov.RandomDB(seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := prov.CheckQuery(db, sql); errors.Is(err, prov.ErrJoinTooLarge) {
			t.Skip(err)
		} else if err != nil {
			t.Fatal(err)
		}
	})
}

// TestPlannerMatchesReferenceOnCampaign puts every seed query through
// both executors on the provenance of a real campaign: both programs,
// injected failures on, and an Hg receptor the guard aborts.
func TestPlannerMatchesReferenceOnCampaign(t *testing.T) {
	ds, err := data.Small(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, code := range data.ReceptorCodes {
		if data.ReceptorMeta(code).ContainsHg {
			ds.Receptors = append(ds.Receptors, code)
			break
		}
	}
	camp, err := core.Run(core.Config{
		Mode: core.ModeAdaptive, Dataset: ds, Cores: 4, Effort: core.SmokeEffort(),
		Seed: 1, HgGuard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	db := camp.Engine.DB
	if db.NumRows(prov.TableDocking) == 0 || db.NumRows(prov.TableFile) == 0 {
		t.Fatal("campaign left no docking or file rows to query")
	}
	for _, sql := range seedSQL {
		if err := prov.CheckQuery(db, sql); err != nil {
			t.Error(err)
		}
	}
}

// FuzzLoadDB feeds arbitrary bytes to the archive reader (cmd/provq
// -load): it must return a database or an error, never panic, and a
// database it returns saves to an archive that loads back to the same
// bytes. Seeds are Save's output for the bare PROV-Wf schema and for
// one row per table, NULLs included; small seeds keep mutations inside
// the rows rather than the schema.
func FuzzLoadDB(f *testing.F) {
	db, err := prov.NewProvWfDB()
	if err != nil {
		f.Fatal(err)
	}
	addArchive := func() {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	addArchive()
	base := time.Date(2014, 3, 1, 8, 0, 0, 0, time.UTC)
	for _, err := range []error{
		db.InsertWorkflow(1, "SciDock", "Docking", "scidock", "/exp/"),
		db.InsertActivity(1, 1, "autodock4", "/exp/template/", "./experiment.cmd"),
		db.InsertActivation(1, 1, 1, prov.StatusFinished, base, base.Add(time.Minute), "vm-1", 1, "cmd"),
		db.InsertFile(1, 1, 1, 1, "2HHN_0E6.dlg", 65740, "/exp/autodock4/"),
		db.InsertRelation(1, 1, "rel_in", "Input", "input.txt"),
		db.InsertDocking(1, 1, "2HHN", "0E6", "autodock4", -7.2, 53.1, 10),
		db.Insert(prov.TableDocking, []prov.Value{int64(2), nil, "1S4V", "0D6", "vina", nil, nil, nil}),
	} {
		if err != nil {
			f.Fatal(err)
		}
	}
	addArchive()
	f.Add([]byte("not an archive"))
	f.Fuzz(func(t *testing.T, b []byte) {
		db, err := prov.LoadDB(bytes.NewReader(b))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := db.Save(&once); err != nil {
			t.Fatal(err)
		}
		again, err := prov.LoadDB(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("saved archive does not load: %v", err)
		}
		if err := again.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("archive changed across a load/save round trip")
		}
	})
}
