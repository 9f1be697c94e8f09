//go:build !race

package nfv

const raceDetector = false
