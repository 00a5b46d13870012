//go:build !unix

package main

import "time"

// processCPU has no portable source off unix; query_cpu_s reads 0 there.
func processCPU() time.Duration { return 0 }
