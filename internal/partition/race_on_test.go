//go:build race

package partition

const raceEnabled = true
