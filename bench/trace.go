package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's exported API. Offsets are
// relative to the tracer's epoch; Parent is the index of the span that
// caused it (-1 for a root) and Op identifies the benchmark operation
// all spans of one request share.
type span struct {
	Name       string
	Start, End time.Duration
	Parent, Op int
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so the untraced pass runs the same code without the
// bookkeeping.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end (and as the parent
// of child spans); -1 from a nil tracer.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = time.Since(t.epoch)
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its
// interval that its direct children cover. Children may overlap one
// another (parallel activity bodies) and may nest; overlapping cover is
// counted once and cover outside the parent is ignored.
func selfTimes(spans []span) []time.Duration {
	type iv struct{ s, e time.Duration }
	kids := make(map[int][]iv)
	for _, c := range spans {
		if c.Parent < 0 || c.Parent >= len(spans) {
			continue
		}
		p := spans[c.Parent]
		s, e := c.Start, c.End
		if s < p.Start {
			s = p.Start
		}
		if e > p.End {
			e = p.End
		}
		if e > s {
			kids[c.Parent] = append(kids[c.Parent], iv{s, e})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, sp := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		var cover, reach time.Duration
		reach = sp.Start
		for _, v := range ivs {
			if v.e <= reach {
				continue
			}
			if v.s > reach {
				reach = v.s
			}
			cover += v.e - reach
			reach = v.e
		}
		self[i] = sp.End - sp.Start - cover
	}
	return self
}

// selfByName sums self time per span name.
func (t *tracer) selfByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, d := range selfTimes(t.spans) {
		out[t.spans[i].Name] += d
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto): one complete event per span, one
// track per operation.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Op,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"span": i, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
