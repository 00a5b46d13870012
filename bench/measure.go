package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// stealLimit is the share of a rep's CPU capacity (wall x nproc) the
// hypervisor may take before the rep counts as noisy. Quiet reps on the
// reference box repeat within a few percent; bursts of steal stretch wall
// 2-5x, so a rep above the limit says more about the host than the program.
const stealLimit = 0.03

// clockTick is the unit of the /proc/stat columns (USER_HZ is 100 on every
// Linux the benchmark runs on).
const clockTick = 10 * time.Millisecond

// stealTicks reads the cumulative steal column of /proc/stat's first line.
// ok is false where the file or the column is absent (non-Linux, old
// kernels); callers then accept every rep.
func stealTicks() (ticks int64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark, in MB.
// It returns 0 where /proc is absent.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// stopwatch brackets one timed region with the three clocks every rep
// carries: wall, whole-process CPU, and host steal.
type stopwatch struct {
	wall    time.Time
	cpu     time.Duration
	steal   int64
	stealOK bool
}

func startWatch() stopwatch {
	s := stopwatch{cpu: processCPU()}
	s.steal, s.stealOK = stealTicks()
	s.wall = time.Now()
	return s
}

// stop returns the region's wall seconds, CPU seconds, and the share of its
// CPU capacity lost to steal (0 where steal is not reported).
func (s stopwatch) stop() (wall, cpu, stealShare float64) {
	wall = time.Since(s.wall).Seconds()
	cpu = (processCPU() - s.cpu).Seconds()
	if after, ok := stealTicks(); ok && s.stealOK && wall > 0 {
		stolen := time.Duration(after-s.steal) * clockTick
		stealShare = stolen.Seconds() / (wall * float64(runtime.NumCPU()))
	}
	return wall, cpu, stealShare
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// acceptReps applies the steal rule to a set of reps: quiet reps (steal
// share within stealLimit) are kept; when fewer than want are quiet the set
// is filled from the lowest-steal noisy ones and the number filled is
// returned, which marks the whole set as one to re-run, not to compare.
func acceptReps(reps []sample, want int) (kept []sample, noisy int) {
	var loud []sample
	for _, r := range reps {
		if r.steal <= stealLimit {
			kept = append(kept, r)
		} else {
			loud = append(loud, r)
		}
	}
	if len(kept) >= want || len(loud) == 0 {
		return kept, 0
	}
	sort.SliceStable(loud, func(i, j int) bool { return loud[i].steal < loud[j].steal })
	noisy = min(want-len(kept), len(loud))
	return append(kept, loud[:noisy]...), noisy
}

// hostProbeRecords is the size of the host probe's sort.
const hostProbeRecords = 40000

// hostProbeNominal is what the host probe takes on the reference box (2
// vCPUs, Xeon 2.1 GHz) while nothing else contends for its cache. Time
// metrics are reported as if the probe had taken exactly this long; on
// another machine they are therefore this box's seconds, not that one's.
const hostProbeNominal = 0.020

// hostFactor is what a run's time metrics are multiplied by, given the
// probe's readings during it.
func hostFactor(probes []float64) float64 {
	if m := median(probes); m > 0 {
		return hostProbeNominal / m
	}
	return 1
}

// hostProbe times a fixed piece of work that owes nothing to the program
// under test: allocate forty thousand small records and sort them through a
// comparison closure — the mix of allocation, pointer chasing and
// cache-resident comparison the engine's spill path is made of. It runs
// before every set-up and every timed query.
//
// Why it exists: this box moves, minutes at a time, between a fast state and
// one in which every query takes up to 45% longer on both clocks, with
// nothing in /proc/stat's steal column and no change in a pure ALU loop, a
// 64 MiB pointer chase or a memcpy — the signature of a neighbour taking the
// shared last-level cache. The probe slows with the queries (log-log slope
// 0.9 to 1.3 across the seven workloads), so dividing by it takes most of
// the host's state out of a run's medians: ten runs of one workload across
// such a change spread by 14-18% of their median raw and 4-11% after.
func hostProbe() float64 {
	t0 := time.Now()
	recs := make([]*[24]byte, hostProbeRecords)
	x := uint64(88172645463325252)
	for i := range recs {
		r := new([24]byte)
		for j := 0; j < len(r); j += 8 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			for k := 0; k < 8; k++ {
				r[j+k] = byte(x >> (8 * k))
			}
		}
		recs[i] = r
	}
	sort.SliceStable(recs, func(i, j int) bool { return bytes.Compare(recs[i][:], recs[j][:]) < 0 })
	return time.Since(t0).Seconds()
}
