//go:build race

package core_test

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are meaningless under its shadow-memory
// bookkeeping and skip themselves.
const raceEnabled = true
