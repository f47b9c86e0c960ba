//go:build race

package kvserver

// raceEnabled reports whether this test binary was built with the race
// detector. Under it sync.Pool drops items at random, so allocation counts
// are not exact.
const raceEnabled = true
