//go:build !race

package record

const raceEnabled = false
