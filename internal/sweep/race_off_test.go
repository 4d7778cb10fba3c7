//go:build !race

package sweep

// raceEnabled reports whether the race detector is instrumenting this build;
// allocation-count pins are meaningless under it.
const raceEnabled = false
