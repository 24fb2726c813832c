//go:build race

package exec_test

// raceEnabled reports a build under the race detector, whose
// instrumentation allocates the new columns of Batch.setWidth apart
// from the array they are appended to.
const raceEnabled = true
