//go:build race

package circlevis_test

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are meaningless under its shadow-memory
// bookkeeping (which also drops pooled buffers) and skip themselves.
const raceEnabled = true
