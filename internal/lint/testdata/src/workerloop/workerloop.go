// Package workerloop is a scilint fixture whose only defect is one
// goroutine worker loop with no shutdown path, so a ctxleak finding
// alone decides the exit status.
package workerloop

// Start spawns a poller that can never be stopped (ctxleak).
func Start(poll func()) {
	go func() {
		for {
			poll()
		}
	}()
}
