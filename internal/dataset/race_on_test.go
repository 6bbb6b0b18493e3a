//go:build race

package dataset

// raceEnabled reports the race detector is compiled in. It randomly
// drops sync.Pool entries, so allocation gates skip under it.
const raceEnabled = true
