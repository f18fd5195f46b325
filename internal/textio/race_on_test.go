//go:build race

package textio

// raceDetector is true when the tests run under -race, which slows the
// strconv reference of the million-value comparison about tenfold.
const raceDetector = true
