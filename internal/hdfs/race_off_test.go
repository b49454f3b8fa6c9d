//go:build !race

package hdfs

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
