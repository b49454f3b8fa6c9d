//go:build race

package mapreduce

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = true
