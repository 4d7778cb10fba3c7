//go:build race

package train

const raceEnabled = true
