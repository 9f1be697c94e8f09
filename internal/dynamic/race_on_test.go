//go:build race

package dynamic

// raceDetector reports that the test binary was built with -race,
// under which sync.Pool drops a quarter of what it is handed and
// every allocation count is inflated.
const raceDetector = true
