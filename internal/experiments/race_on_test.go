//go:build race

package experiments

// raceDetector reports that the test binary was built with -race,
// under which a full figure run takes minutes.
const raceDetector = true
