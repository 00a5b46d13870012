//go:build race

package scihadoop

// raceEnabled reports that the race detector is on. It changes what
// sync.Pool keeps, so the allocation-volume gates are skipped under it.
const raceEnabled = true
