//go:build !race

package proto

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
