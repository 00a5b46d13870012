//go:build race

package main

// raceEnabled reports that the race detector is on. Its instrumentation
// multiplies the cost of exactly the calls the ledger times, so assertions
// about how timings add up are skipped under it.
const raceEnabled = true
