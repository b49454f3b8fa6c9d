//go:build !race

package hamrapps

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
