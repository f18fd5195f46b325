//go:build !race

package vina

const raceDetector = false
