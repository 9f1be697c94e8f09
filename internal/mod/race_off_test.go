//go:build !race

package mod

const raceDetector = false
