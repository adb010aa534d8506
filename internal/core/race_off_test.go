//go:build !race

package core_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
