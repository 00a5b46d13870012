//go:build race

package mapreduce

// raceEnabled reports that the race detector is on. Its instrumentation
// allocates on its own, so allocation-count assertions are skipped under it.
const raceEnabled = true
