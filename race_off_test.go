//go:build !race

package crdbserverless

// raceEnabled reports whether this test binary was built with the race
// detector.
const raceEnabled = false
