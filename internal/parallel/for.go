package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Panic is a unit's recovered panic, which For returns as that unit's
// failure.
type Panic struct {
	Index int // the unit that panicked
	Value any // what it panicked with
}

func (p *Panic) Error() string {
	return fmt.Sprintf("parallel: unit %d panicked: %v", p.Index, p.Value)
}

// For runs body(i, s) once for every i in [0, n) on a bounded fan-out
// and returns the failure of the lowest index, or nil. workers ≤ 0
// sizes the pool from the process-global budget (Tokens().Grab(n)), 1
// runs every unit on the caller's goroutine, and any value is clamped
// to n. Each goroutine builds one scratch value with scratch (S's zero
// value when scratch is nil) and reuses it for every unit it pulls off
// a shared counter. A unit's error, or its panic as a *Panic, lands in
// that unit's own slot, so the failure For reports — like any output a
// body writes to its own index — does not depend on the worker count
// or the schedule. For returns once every unit has run and every
// token is back.
func For[S any](n, workers int, scratch func() S, body func(i int, s S) error) error {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		var release func()
		workers, release = Tokens().Grab(n)
		defer release()
	}
	workers = min(workers, n)
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		var s S
		if scratch != nil {
			s = scratch()
		}
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			errs[i] = contain(i, s, body)
		}
	}
	if workers == 1 {
		work()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// contain runs one unit, turning its panic into a *Panic: units run on
// goroutines nobody else can guard.
func contain[S any](i int, s S, body func(int, S) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Panic{Index: i, Value: r}
		}
	}()
	return body(i, s)
}
