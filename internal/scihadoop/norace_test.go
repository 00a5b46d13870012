//go:build !race

package scihadoop

const raceEnabled = false
