//go:build race

package algebra

// raceEnabled reports a build under the race detector, whose sync.Pool
// drops a share of what is put back, so a warm finish's scratch is
// remade at random there.
const raceEnabled = true
