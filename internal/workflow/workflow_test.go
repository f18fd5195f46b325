package workflow

import (
	"strings"
	"testing"
)

func noop(in Tuple) (*ActivationResult, error) {
	return &ActivationResult{Outputs: []Tuple{in}}, nil
}

func chainWorkflow() *Workflow {
	return &Workflow{
		Tag: "W", Description: "test", ExecTag: "w", ExpDir: "/exp/",
		Activities: []*Activity{
			{Tag: "a", Op: Map, Run: noop},
			{Tag: "b", Op: Map, Depends: []string{"a"}, Run: noop},
			{Tag: "c", Op: Filter, Depends: []string{"b"}, Run: noop},
		},
	}
}

func TestTupleOps(t *testing.T) {
	tp := Tuple{"LIGAND": "0E6", "RECEPTOR": "2HHN"}
	c := tp.Clone()
	c["LIGAND"] = "042"
	if tp["LIGAND"] != "0E6" {
		t.Error("clone aliases storage")
	}
	m := tp.Merge(Tuple{"PROGRAM": "vina", "LIGAND": "074"})
	if m["PROGRAM"] != "vina" || m["LIGAND"] != "074" || tp["LIGAND"] != "0E6" {
		t.Errorf("merge = %v", m)
	}
	if _, err := tp.Get("MISSING"); err == nil || !strings.Contains(err.Error(), "MISSING") {
		t.Errorf("missing field: %v", err)
	}
	if v, err := tp.Get("LIGAND"); err != nil || v != "0E6" {
		t.Errorf("get = %v, %v", v, err)
	}
	if s := tp.String(); s != "LIGAND=0E6 RECEPTOR=2HHN" {
		t.Errorf("string = %q", s)
	}
}

func TestWorkflowValidate(t *testing.T) {
	if err := chainWorkflow().Validate(); err != nil {
		t.Errorf("valid workflow rejected: %v", err)
	}
	w := chainWorkflow()
	w.Activities[1].Depends = []string{"zz"}
	if err := w.Validate(); err == nil {
		t.Error("unknown dependency accepted")
	}
	w = chainWorkflow()
	w.Activities = append(w.Activities, &Activity{Tag: "a", Op: Map, Run: noop})
	if err := w.Validate(); err == nil {
		t.Error("duplicate tag accepted")
	}
	w = chainWorkflow()
	w.Activities[0].Run = nil
	if err := w.Validate(); err == nil {
		t.Error("missing Run accepted")
	}
	w = chainWorkflow()
	w.Activities[0].Depends = []string{"c"} // cycle a->c->b->a
	if err := w.Validate(); err == nil {
		t.Error("cycle accepted")
	}
	if err := (&Workflow{Tag: "x"}).Validate(); err == nil {
		t.Error("empty workflow accepted")
	}
	r := &Activity{Tag: "r", Op: Reduce, Run: noop}
	w = &Workflow{Tag: "w", Activities: []*Activity{r}}
	if err := w.Validate(); err == nil {
		t.Error("reduce without group key accepted")
	}
}

func TestTopoOrderAndStages(t *testing.T) {
	// Diamond: a -> (b, c) -> d
	w := &Workflow{
		Tag: "D",
		Activities: []*Activity{
			{Tag: "d", Op: Map, Depends: []string{"b", "c"}, Run: noop},
			{Tag: "b", Op: Map, Depends: []string{"a"}, Run: noop},
			{Tag: "c", Op: Map, Depends: []string{"a"}, Run: noop},
			{Tag: "a", Op: Map, Run: noop},
		},
	}
	order, err := w.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, a := range order {
		pos[a.Tag] = i
	}
	if pos["a"] > pos["b"] || pos["a"] > pos["c"] || pos["b"] > pos["d"] || pos["c"] > pos["d"] {
		t.Errorf("topo order wrong: %v", pos)
	}
}

func TestCheckFanOut(t *testing.T) {
	mk := func(n int) *ActivationResult {
		r := &ActivationResult{}
		for i := 0; i < n; i++ {
			r.Outputs = append(r.Outputs, Tuple{})
		}
		return r
	}
	cases := []struct {
		op Operator
		n  int
		ok bool
	}{
		{Map, 1, true}, {Map, 0, false}, {Map, 2, false},
		{SplitMap, 1, true}, {SplitMap, 3, true}, {SplitMap, 0, false},
		{Filter, 0, true}, {Filter, 1, true}, {Filter, 2, false},
		{Reduce, 1, true}, {Reduce, 0, false},
	}
	for _, c := range cases {
		a := &Activity{Tag: "t", Op: c.op}
		err := a.CheckFanOut(mk(c.n))
		if (err == nil) != c.ok {
			t.Errorf("%s with %d outputs: err=%v", c.op, c.n, err)
		}
	}
}

func TestOperatorParse(t *testing.T) {
	for _, s := range []string{"MAP", "SPLIT_MAP", "FILTER", "REDUCE", ""} {
		if _, err := ParseOperator(s); err != nil {
			t.Errorf("ParseOperator(%q): %v", s, err)
		}
	}
	if _, err := ParseOperator("JOIN"); err == nil {
		t.Error("unknown operator accepted")
	}
	if Map.String() != "MAP" || SplitMap.String() != "SPLIT_MAP" {
		t.Error("operator names wrong")
	}
}

func TestInstantiate(t *testing.T) {
	tpl := "./babel -isdf %LIGAND%.sdf -omol2 %LIGAND%.mol2 -d %EXPDIR%"
	tup := Tuple{"LIGAND": "0E6", "EXPDIR": "/root/scidock"}
	cmd, err := Instantiate(tpl, tup)
	if err != nil {
		t.Fatal(err)
	}
	want := "./babel -isdf 0E6.sdf -omol2 0E6.mol2 -d /root/scidock"
	if cmd != want {
		t.Errorf("cmd = %q", cmd)
	}
	if _, err := Instantiate("%MISSING% %LIGAND%", tup); err == nil ||
		!strings.Contains(err.Error(), "MISSING") {
		t.Errorf("unbound tag: %v", err)
	}
}
