package workflow

import (
	"fmt"
)

// Workflow is a DAG of activities with a tag and experiment metadata,
// mirroring the <SciCumulusWorkflow> XML element.
type Workflow struct {
	Tag         string
	Description string
	ExecTag     string
	ExpDir      string
	Activities  []*Activity
}

// Validate checks tags are unique, dependencies resolve and the graph
// is acyclic; it returns the first violation.
func (w *Workflow) Validate() error {
	if w.Tag == "" {
		return fmt.Errorf("workflow: empty workflow tag")
	}
	if len(w.Activities) == 0 {
		return fmt.Errorf("workflow %q: no activities", w.Tag)
	}
	byTag := make(map[string]*Activity, len(w.Activities))
	for _, a := range w.Activities {
		if err := a.Validate(); err != nil {
			return err
		}
		if _, dup := byTag[a.Tag]; dup {
			return fmt.Errorf("workflow %q: duplicate activity tag %q", w.Tag, a.Tag)
		}
		byTag[a.Tag] = a
	}
	for _, a := range w.Activities {
		for _, d := range a.Depends {
			if _, ok := byTag[d]; !ok {
				return fmt.Errorf("workflow %q: activity %q depends on unknown %q", w.Tag, a.Tag, d)
			}
		}
	}
	if _, err := w.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// Activity returns the activity with the given tag.
func (w *Workflow) Activity(tag string) (*Activity, error) {
	for _, a := range w.Activities {
		if a.Tag == tag {
			return a, nil
		}
	}
	return nil, fmt.Errorf("workflow %q: no activity %q", w.Tag, tag)
}

// TopoOrder returns the activities in a dependency-respecting order
// (stable: declaration order breaks ties), or an error on cycles.
func (w *Workflow) TopoOrder() ([]*Activity, error) {
	indeg := make(map[string]int, len(w.Activities))
	dependents := make(map[string][]string)
	byTag := make(map[string]*Activity, len(w.Activities))
	for _, a := range w.Activities {
		byTag[a.Tag] = a
		indeg[a.Tag] = len(a.Depends)
		for _, d := range a.Depends {
			dependents[d] = append(dependents[d], a.Tag)
		}
	}
	var order []*Activity
	ready := []string{}
	for _, a := range w.Activities {
		if indeg[a.Tag] == 0 {
			ready = append(ready, a.Tag)
		}
	}
	for len(ready) > 0 {
		tag := ready[0]
		ready = ready[1:]
		order = append(order, byTag[tag])
		for _, dep := range dependents[tag] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if len(order) != len(w.Activities) {
		return nil, fmt.Errorf("workflow %q: dependency cycle detected", w.Tag)
	}
	return order, nil
}
