//go:build race

package sweep

const raceEnabled = true
