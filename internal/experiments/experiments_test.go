package experiments

import (
	"strings"
	"testing"
)

func TestAllExperimentsQuick(t *testing.T) {
	s := &Suite{Quick: true}
	out, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"TABLE 1", "TABLE 2", "TABLE 3",
		"FIGURE 5", "FIGURE 6", "FIGURE 7", "FIGURE 8", "FIGURE 9",
		"FIGURE 10", "FIGURE 11",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in combined output", want)
		}
	}
	if !strings.Contains(out, "m3.xlarge") || !strings.Contains(out, "m3.2xlarge") {
		t.Error("Table 1 lacks the instance types")
	}
	if !strings.Contains(out, "2HHN") {
		t.Error("Table 2 lacks receptor codes")
	}
	if !strings.Contains(out, "improvement@32") {
		t.Error("Figure 7 lacks the improvement metric")
	}
	if !strings.Contains(out, ".dlg") {
		t.Error("Figure 11 lacks dlg files")
	}
}

func TestByName(t *testing.T) {
	s := &Suite{Quick: true}
	if _, err := s.ByName("t1"); err != nil {
		t.Errorf("t1: %v", err)
	}
	if _, err := s.ByName("F8"); err != nil {
		t.Errorf("case-insensitive dispatch: %v", err)
	}
	if _, err := s.ByName("f99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSweepMemoized(t *testing.T) {
	s := &Suite{Quick: true}
	a1, _, err := s.sweep()
	if err != nil {
		t.Fatal(err)
	}
	a2, _, err := s.sweep()
	if err != nil {
		t.Fatal(err)
	}
	if &a1.Points[0] != &a2.Points[0] {
		t.Error("sweep recomputed instead of memoized")
	}
}

func TestTable3IncludesConsensus(t *testing.T) {
	s := &Suite{Quick: true}
	out, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Spearman", "common pairs", "total FEB(-)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 output missing %q", want)
		}
	}
}
