//go:build !race

package dynamic

const raceDetector = false
