//go:build !race

package datagen

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
