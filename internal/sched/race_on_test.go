//go:build race

package sched

// raceDetector is true when the tests run under -race, where sync.Pool
// drops a random share of what it is given, so pooled objects are
// reallocated at random.
const raceDetector = true
