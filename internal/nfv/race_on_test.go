//go:build race

package nfv

// raceDetector reports that the test binary was built with -race,
// under which every allocation count is inflated.
const raceDetector = true
