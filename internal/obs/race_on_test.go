//go:build race

package obs

// raceDetector reports that the test binary was built with -race,
// under which sync.Pool drops a share of what it is handed.
const raceDetector = true
