//go:build race

package netexport

// raceEnabled reports a -race build, whose sync.Pool drops a random
// quarter of Puts, so no pool hit can be counted on.
const raceEnabled = true
