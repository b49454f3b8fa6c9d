//go:build race

package core

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
