// Package workerloop is a scilint fixture whose only defect is one
// goroutine worker loop that drops each job's error, so a discarderr
// finding alone decides the exit status.
package workerloop

// Start spawns a worker that runs every job and discards its error
// (discarderr).
func Start(jobs <-chan func() error) {
	go func() {
		for job := range jobs {
			_ = job()
		}
	}()
}
