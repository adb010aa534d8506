//go:build !race

package circlevis_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
