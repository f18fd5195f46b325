//go:build race

package vina

// raceDetector is true when the tests run under -race, where the large
// pair's docks are ≈ 15× slower: tests that sweep seeds over it keep
// their full sweep for the plain run and a short one here.
const raceDetector = true
