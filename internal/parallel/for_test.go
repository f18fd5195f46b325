package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// scratch is a per-goroutine value. busy flags a unit in flight on it,
// and uses is a plain counter the race detector watches.
type scratch struct {
	busy atomic.Bool
	uses int
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	_, before, _ := Tokens().Occupancy()
	for _, n := range []int{0, 1, 7} {
		for _, workers := range []int{-1, 0, 1, 2, n, n + 3} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				var built atomic.Int32
				var shared atomic.Int32
				err := For(n, workers,
					func() *scratch { built.Add(1); return new(scratch) },
					func(i int, s *scratch) error {
						if !s.busy.CompareAndSwap(false, true) {
							shared.Add(1)
						}
						s.uses++
						runs[i].Add(1)
						runtime.Gosched() // widen the window another goroutine would need
						s.busy.Store(false)
						return nil
					})
				if err != nil {
					t.Fatalf("For returned %v", err)
				}
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Errorf("index %d ran %d times", i, got)
					}
				}
				if shared.Load() != 0 {
					t.Errorf("%d units found their scratch value in use", shared.Load())
				}
				limit := min(n, workers)
				if workers <= 0 {
					limit = min(n, Tokens().Cap()+1)
				}
				if got := int(built.Load()); got > limit || (n > 0 && got < 1) {
					t.Errorf("%d scratch values built, want 1..%d", got, limit)
				}
				if _, inUse, _ := Tokens().Occupancy(); inUse != before {
					t.Errorf("%d tokens in use after For, %d before", inUse, before)
				}
			})
		}
	}
}

func TestForNilScratchIsZero(t *testing.T) {
	err := For(3, 2, nil, func(i int, s *scratch) error {
		if s != nil {
			return fmt.Errorf("unit %d got scratch %v", i, s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForLowestIndexFailureWins makes a higher index fail first in
// time: on two workers, unit 2 waits until unit 5 has failed before it
// fails itself. Unit 2's failure — an error, or a panic — is the one
// For reports.
func TestForLowestIndexFailureWins(t *testing.T) {
	_, before, _ := Tokens().Occupancy()
	late := errors.New("unit 2 failed")
	for _, panics := range []bool{false, true} {
		failed5 := make(chan struct{})
		err := For(7, 2, nil, func(i int, _ any) error {
			switch i {
			case 2:
				<-failed5
				if panics {
					panic(late)
				}
				return late
			case 5:
				close(failed5)
				return errors.New("unit 5 failed")
			case 6:
				panic("unit 6 panicked")
			}
			return nil
		})
		var p *Panic
		switch {
		case panics && (!errors.As(err, &p) || p.Index != 2 || p.Value != late):
			t.Errorf("For returned %v, want unit 2's panic", err)
		case !panics && err != late:
			t.Errorf("For returned %v, want unit 2's error", err)
		}
		if _, inUse, _ := Tokens().Occupancy(); inUse != before {
			t.Errorf("%d tokens in use after For, %d before", inUse, before)
		}
	}
}

func TestForPanicOnCallerGoroutineIsContained(t *testing.T) {
	err := For(4, 1, nil, func(i int, _ any) error {
		if i == 3 {
			var m map[string]int
			m["x"] = 1
		}
		return nil
	})
	var p *Panic
	if !errors.As(err, &p) || p.Index != 3 {
		t.Fatalf("For returned %v, want unit 3's panic", err)
	}
}
