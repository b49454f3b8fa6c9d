//go:build !race

package extsort

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
