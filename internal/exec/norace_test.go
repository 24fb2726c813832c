//go:build !race

package exec_test

// raceEnabled reports a build under the race detector.
const raceEnabled = false
