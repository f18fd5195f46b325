package prov

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestExportPROVN(t *testing.T) {
	db := seededDB(t)
	var buf bytes.Buffer
	if err := db.ExportPROVN(&buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	if !strings.HasPrefix(doc, "document\n") || !strings.HasSuffix(strings.TrimSpace(doc), "endDocument") {
		t.Error("document framing missing")
	}
	counts := CountPROVNStatements(doc)
	// 1 workflow plan + 3 files = 4 entities.
	if counts["entity"] != 4 {
		t.Errorf("entities = %d, want 4", counts["entity"])
	}
	// 7 activations.
	if counts["activity"] != 7 {
		t.Errorf("activities = %d, want 7", counts["activity"])
	}
	// SciCumulus + vm-1.
	if counts["agent"] != 2 {
		t.Errorf("agents = %d, want 2", counts["agent"])
	}
	// Every file generated by exactly one activation.
	if counts["wasGeneratedBy"] != 3 {
		t.Errorf("wasGeneratedBy = %d, want 3", counts["wasGeneratedBy"])
	}
	// Each activation: one engine association + one VM association.
	if counts["wasAssociatedWith"] != 14 {
		t.Errorf("wasAssociatedWith = %d, want 14", counts["wasAssociatedWith"])
	}
	// Timestamps are PROV-N xsd:dateTime literals.
	if !strings.Contains(doc, "2014-03-01T08:00:00.000Z") {
		t.Error("start timestamp missing or misformatted")
	}
	// Activity tags carried as attributes.
	if !strings.Contains(doc, `scw:activity="babel1k"`) {
		t.Error("activity tag attribute missing")
	}
}

func TestProvnIDSanitization(t *testing.T) {
	if got := provnID("i-m3.xlarge-0001"); got != "i-m3.xlarge-0001" {
		t.Errorf("safe id changed: %q", got)
	}
	if got := provnID("a b/c:d"); got != "a_b_c_d" {
		t.Errorf("unsafe id = %q", got)
	}
}

func TestProvnTime(t *testing.T) {
	if provnTime(time.Time{}) != "-" {
		t.Error("zero time should render as -")
	}
	ts := time.Date(2014, 3, 1, 12, 30, 45, 500e6, time.UTC)
	if got := provnTime(ts); got != "2014-03-01T12:30:45.500Z" {
		t.Errorf("time = %q", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := seededDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Query 1 produces identical results on the archive.
	sql := `SELECT a.tag, sum(extract('epoch' from (t.endtime-t.starttime)))
FROM hworkflow w, hactivity a, hactivation t
WHERE w.wkfid = a.wkfid AND a.actid = t.actid AND w.wkfid = 432
GROUP BY a.tag ORDER BY a.tag`
	orig, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loaded.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Format() != again.Format() {
		t.Errorf("archive query differs:\n%s\nvs\n%s", orig.Format(), again.Format())
	}
	if len(loaded.TableNames()) != len(db.TableNames()) {
		t.Errorf("tables = %v", loaded.TableNames())
	}
	// Timestamps survive with full fidelity.
	res, _ := loaded.Query("SELECT starttime FROM hactivation WHERE taskid = 1")
	if ts, ok := res.Rows[0][0].(time.Time); !ok || ts.UTC().Hour() != 8 {
		t.Errorf("timestamp = %v", res.Rows[0][0])
	}
}

func TestLoadDBErrors(t *testing.T) {
	if _, err := LoadDB(strings.NewReader("not gob")); err == nil {
		t.Error("garbage accepted")
	}
}

// CountPROVNStatements counts the PROV-N statements of each kind in an
// exported document.
func CountPROVNStatements(doc string) map[string]int {
	counts := map[string]int{}
	for _, line := range strings.Split(doc, "\n") {
		line = strings.TrimSpace(line)
		for _, kind := range []string{
			"entity(", "activity(", "agent(", "wasGeneratedBy(", "wasAssociatedWith(",
		} {
			if strings.HasPrefix(line, kind) {
				counts[strings.TrimSuffix(kind, "(")]++
			}
		}
	}
	return counts
}
