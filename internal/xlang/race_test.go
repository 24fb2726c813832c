//go:build race

package xlang

// raceEnabled reports a build under the race detector, whose
// instrumentation moves one more value to the heap on the point path.
const raceEnabled = true
