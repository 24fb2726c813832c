//go:build !race

package algebra

// raceEnabled reports a build under the race detector.
const raceEnabled = false
