//go:build unix

package main

import (
	"syscall"
	"time"
)

// processCPU returns the user+system CPU time the whole process has used:
// every goroutine of the engine, the in-process workers, and the GC.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
