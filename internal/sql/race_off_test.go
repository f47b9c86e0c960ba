//go:build !race

package sql

// raceEnabled reports whether this test binary was built with the race
// detector.
const raceEnabled = false
