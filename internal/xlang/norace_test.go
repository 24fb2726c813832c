//go:build !race

package xlang

// raceEnabled reports a build under the race detector.
const raceEnabled = false
