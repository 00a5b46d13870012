// Package cluster models the testbed the paper evaluated on — a 5-node
// Hadoop cluster with 10 map slots and 5 reducers — as a cost model over
// measured work: each task's duration is its *measured* CPU seconds plus
// modeled disk and network transfer time, and phase makespans come from
// list-scheduling tasks onto slots.
//
// Wall-clock minutes from the authors' hardware are not reproducible; this
// model preserves what the paper's runtime comparisons actually hinge on:
// byte volumes (which we measure exactly), CPU cost of codecs (which we
// measure on the real implementations), and slot-limited parallelism.
package cluster

import "fmt"

// Config describes a simulated cluster.
type Config struct {
	// Nodes is the machine count (paper: 5).
	Nodes int
	// MapSlotsPerNode (paper: 2, for 10 map slots).
	MapSlotsPerNode int
	// ReduceSlotsPerNode (paper: 1, for 5 reducers).
	ReduceSlotsPerNode int
	// DiskMBps is sequential disk bandwidth per node in MiB/s.
	DiskMBps float64
	// NetMBps is network bandwidth per node in MiB/s.
	NetMBps float64
}

// Paper returns the evaluation cluster of Sections III-E and IV-D:
// 5 nodes, 10 map slots, 5 reducers, 2012-era disks and gigabit Ethernet.
func Paper() Config {
	return Config{
		Nodes:              5,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		DiskMBps:           90,
		NetMBps:            110,
	}
}

// MapSlots returns the cluster-wide map slot count.
func (c Config) MapSlots() int { return c.Nodes * c.MapSlotsPerNode }

// ReduceSlots returns the cluster-wide reduce slot count.
func (c Config) ReduceSlots() int { return c.Nodes * c.ReduceSlotsPerNode }

func (c Config) validate() {
	if c.Nodes <= 0 || c.MapSlotsPerNode <= 0 || c.ReduceSlotsPerNode <= 0 {
		panic(fmt.Sprintf("cluster: bad config %+v", c))
	}
	if c.DiskMBps <= 0 || c.NetMBps <= 0 {
		panic(fmt.Sprintf("cluster: bad bandwidths %+v", c))
	}
}

// Task is the resource footprint of one map or reduce task.
type Task struct {
	// DiskBytes is the total sequential disk traffic (reads + writes):
	// input scan, spills, merge passes, final output.
	DiskBytes int64
	// NetBytes is the data moved across the network for this task (for a
	// reduce task, its shuffled partition).
	NetBytes int64
	// CPUSeconds is measured compute time: map/reduce function, codec,
	// transform, sort comparisons.
	CPUSeconds float64
}

// Seconds converts a task footprint to modeled duration.
func (c Config) Seconds(t Task) float64 {
	c.validate()
	const mib = 1 << 20
	return t.CPUSeconds +
		float64(t.DiskBytes)/(c.DiskMBps*mib) +
		float64(t.NetBytes)/(c.NetMBps*mib)
}

// Makespan list-schedules task durations onto slots in the given order,
// returning the finish time of the last task. It mirrors Hadoop's
// first-free-slot task assignment.
func Makespan(durations []float64, slots int) float64 {
	if slots <= 0 {
		panic("cluster: slots must be positive")
	}
	if len(durations) == 0 {
		return 0
	}
	free := make([]float64, min(slots, len(durations)))
	for _, d := range durations {
		// Assign to the earliest-free slot.
		best := 0
		for i, f := range free {
			if f < free[best] {
				best = i
			}
		}
		free[best] += d
	}
	var end float64
	for _, f := range free {
		if f > end {
			end = f
		}
	}
	return end
}

// JobEstimate is a job's modeled phase breakdown in seconds.
type JobEstimate struct {
	MapSeconds    float64
	ReduceSeconds float64
	// WastedMapSeconds / WastedReduceSeconds total the slot time burned by
	// attempts whose output was discarded (failures, corruption re-runs,
	// speculative losers). Their durations are already inside
	// MapSeconds/ReduceSeconds — wasted attempts occupied real slots — so
	// these report how much of each phase was recovery overhead.
	WastedMapSeconds    float64
	WastedReduceSeconds float64
}

// Total returns end-to-end modeled runtime. Hadoop overlaps the shuffle
// with the map phase; we fold shuffle transfer into the reduce tasks'
// NetBytes and keep the two phases sequential, which preserves ordering
// between configurations that move different byte volumes.
func (e JobEstimate) Total() float64 { return e.MapSeconds + e.ReduceSeconds }

// EstimateJob schedules the map tasks on map slots and reduce tasks on
// reduce slots.
func (c Config) EstimateJob(maps, reduces []Task) JobEstimate {
	return c.EstimateJobWithWaste(maps, reduces, nil, nil)
}

// EstimateJobWithWaste additionally schedules discarded attempts (failed,
// corruption-replaced, or speculatively-lost executions) alongside the
// committed tasks: wasted attempts held real slots for their duration, so
// recovery overhead stretches the phase makespans exactly as it would on the
// paper's cluster.
func (c Config) EstimateJobWithWaste(maps, reduces, wastedMaps, wastedReduces []Task) JobEstimate {
	c.validate()
	seconds := func(tasks []Task) []float64 {
		ds := make([]float64, len(tasks))
		for i, t := range tasks {
			ds[i] = c.Seconds(t)
		}
		return ds
	}
	sum := func(ds []float64) float64 {
		var s float64
		for _, d := range ds {
			s += d
		}
		return s
	}
	wm, wr := seconds(wastedMaps), seconds(wastedReduces)
	return JobEstimate{
		MapSeconds:          Makespan(append(seconds(maps), wm...), c.MapSlots()),
		ReduceSeconds:       Makespan(append(seconds(reduces), wr...), c.ReduceSlots()),
		WastedMapSeconds:    sum(wm),
		WastedReduceSeconds: sum(wr),
	}
}
