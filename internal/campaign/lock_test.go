package campaign

import (
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/parallel"
)

// TestShutdownPastDeadlineReleasesLock drives Shutdown past its
// deadline with a campaign still running: Shutdown marks it CANCELLING
// under m.mu and must let go of m.mu before it waits, or neither the
// campaign's terminal bookkeeping nor any other caller can run again.
func TestShutdownPastDeadlineReleasesLock(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	spec := tinySpec(16)
	m := NewManager(parallel.NewPool(2), Limits{})
	id, err := m.SubmitConfig(spec, blockingConfig(t, spec, started, release))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	drained := make(chan struct{})
	go func() {
		m.Shutdown(expired)
		close(drained)
	}()
	// Unblock the campaign only once Shutdown has cancelled it, so the
	// deadline path is the one taken.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m.mu.TryLock() {
			state := m.records[id].state
			m.mu.Unlock()
			if state == StateCancelling {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("m.mu held, or the running campaign never marked CANCELLING, 10 s into Shutdown")
		}
		runtime.Gosched()
	}
	close(release)
	<-drained

	if !m.mu.TryLock() {
		t.Fatal("m.mu still held after Shutdown")
	}
	m.mu.Unlock()
	if st, _ := m.Status(id); st.State != StateCancelled {
		t.Errorf("running campaign state = %s, want CANCELLED", st.State)
	}
}
