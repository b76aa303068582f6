//go:build !race

package arm2gc

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
