//go:build !race

package dataset

const raceEnabled = false
