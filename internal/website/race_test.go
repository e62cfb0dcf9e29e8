//go:build race

package website

// raceEnabled reports a -race build, whose instrumentation changes
// what escapes and so what the allocation pins count.
const raceEnabled = true
