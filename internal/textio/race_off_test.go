//go:build !race

package textio

const raceDetector = false
