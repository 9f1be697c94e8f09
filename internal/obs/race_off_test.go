//go:build !race

package obs

const raceDetector = false
