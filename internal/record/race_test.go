//go:build race

package record

const raceEnabled = true
