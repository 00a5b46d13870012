package cluster

import (
	"math"
	"testing"
)

func TestPaperConfig(t *testing.T) {
	c := Paper()
	if c.MapSlots() != 10 {
		t.Errorf("map slots = %d, want 10", c.MapSlots())
	}
	if c.ReduceSlots() != 5 {
		t.Errorf("reduce slots = %d, want 5", c.ReduceSlots())
	}
}

func TestTaskSeconds(t *testing.T) {
	c := Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, DiskMBps: 100, NetMBps: 50}
	task := Task{DiskBytes: 100 << 20, NetBytes: 50 << 20, CPUSeconds: 3}
	// 1s disk + 1s net + 3s cpu.
	if got := c.Seconds(task); math.Abs(got-5) > 1e-9 {
		t.Errorf("Seconds = %f, want 5", got)
	}
}

func TestMakespan(t *testing.T) {
	// 4 unit tasks on 2 slots: 2 rounds.
	if got := Makespan([]float64{1, 1, 1, 1}, 2); got != 2 {
		t.Errorf("Makespan = %f, want 2", got)
	}
	// One long task dominates.
	if got := Makespan([]float64{10, 1, 1, 1}, 2); got != 10 {
		t.Errorf("Makespan = %f, want 10", got)
	}
	// More slots than tasks: the longest task.
	if got := Makespan([]float64{3, 5}, 8); got != 5 {
		t.Errorf("Makespan = %f, want 5", got)
	}
	if got := Makespan(nil, 4); got != 0 {
		t.Errorf("empty Makespan = %f", got)
	}
	// Single slot: sum.
	if got := Makespan([]float64{1, 2, 3}, 1); got != 6 {
		t.Errorf("one-slot Makespan = %f, want 6", got)
	}
}

func TestMakespanLongestFirst(t *testing.T) {
	// FIFO order can be beaten by LPT: tasks {1,1,1,3} on 2 slots.
	fifo := Makespan([]float64{1, 1, 1, 3}, 2)
	lpt := Makespan([]float64{3, 1, 1, 1}, 2) // longest processing time first
	if lpt > fifo {
		t.Errorf("LPT (%f) must not exceed FIFO (%f)", lpt, fifo)
	}
	if lpt != 3 {
		t.Errorf("LPT = %f, want 3", lpt)
	}
}

func TestEstimateJobScalesWithBytes(t *testing.T) {
	// Double the shuffled bytes, keep CPU at zero: reduce phase doubles.
	c := Paper()
	small := make([]Task, 5)
	big := make([]Task, 5)
	for i := range small {
		small[i] = Task{NetBytes: 100 << 20}
		big[i] = Task{NetBytes: 200 << 20}
	}
	es := c.EstimateJob(nil, small)
	eb := c.EstimateJob(nil, big)
	if eb.ReduceSeconds <= es.ReduceSeconds {
		t.Error("more bytes must take longer")
	}
	ratio := eb.ReduceSeconds / es.ReduceSeconds
	if math.Abs(ratio-2) > 1e-6 {
		t.Errorf("ratio = %f, want 2", ratio)
	}
	if es.Total() != es.MapSeconds+es.ReduceSeconds {
		t.Error("Total must sum phases")
	}
}

func TestEstimateJobMapSlots(t *testing.T) {
	// 20 equal map tasks on 10 slots take exactly 2 task-durations.
	c := Paper()
	maps := make([]Task, 20)
	for i := range maps {
		maps[i] = Task{CPUSeconds: 7}
	}
	e := c.EstimateJob(maps, nil)
	if math.Abs(e.MapSeconds-14) > 1e-9 {
		t.Errorf("MapSeconds = %f, want 14", e.MapSeconds)
	}
}

func TestValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero nodes", func() { (Config{}).Seconds(Task{}) })
	mustPanic("zero slots makespan", func() { Makespan([]float64{1}, 0) })
	mustPanic("no bandwidth", func() {
		(Config{Nodes: 1, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1}).Seconds(Task{})
	})
}

func TestEstimateJobLocality(t *testing.T) {
	c := Config{Nodes: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1, DiskMBps: 100, NetMBps: 10}
	nodes := []string{"a", "b"}
	mib := int64(1 << 20)
	// Two tasks, each local to a different node: both should hit.
	maps := []MapSpec{
		{Task: Task{DiskBytes: 100 * mib}, InputBytes: 100 * mib, Hosts: []string{"a"}},
		{Task: Task{DiskBytes: 100 * mib}, InputBytes: 100 * mib, Hosts: []string{"b"}},
	}
	est := c.EstimateJobLocality(nodes, maps, nil)
	if est.LocalTasks != 2 || est.TotalTasks != 2 {
		t.Errorf("locality = %d/%d, want 2/2", est.LocalTasks, est.TotalTasks)
	}
	if est.MapSeconds != 1 { // 100 MiB / 100 MiB/s, in parallel
		t.Errorf("MapSeconds = %f, want 1", est.MapSeconds)
	}
	// No replicas anywhere: all misses, input crosses the 10x slower net.
	remote := []MapSpec{
		{Task: Task{DiskBytes: 100 * mib}, InputBytes: 100 * mib, Hosts: []string{"elsewhere"}},
	}
	est = c.EstimateJobLocality(nodes, remote, nil)
	if est.LocalTasks != 0 {
		t.Errorf("locality = %d, want 0", est.LocalTasks)
	}
	if est.MapSeconds != 10 { // 100 MiB over 10 MiB/s network
		t.Errorf("remote MapSeconds = %f, want 10", est.MapSeconds)
	}
	// Locality-aware scheduling never beats the all-local assumption.
	plain := c.EstimateJob([]Task{remote[0].Task}, nil)
	if est.MapSeconds < plain.MapSeconds {
		t.Error("remote read cannot be faster than local")
	}
}

func TestEstimateJobLocalityNoNodes(t *testing.T) {
	c := Paper()
	est := c.EstimateJobLocality(nil, []MapSpec{{Task: Task{CPUSeconds: 1}}}, nil)
	if est.MapSeconds != 1 || est.LocalTasks != 0 {
		t.Errorf("fallback slot misbehaved: %+v", est)
	}
}

func TestEstimateJobWithWaste(t *testing.T) {
	cfg := Paper()
	maps := make([]Task, 10)
	for i := range maps {
		maps[i] = Task{CPUSeconds: 10}
	}
	reduces := []Task{{CPUSeconds: 5}}
	base := cfg.EstimateJob(maps, reduces)
	if base.WastedMapSeconds != 0 || base.WastedReduceSeconds != 0 {
		t.Errorf("clean estimate reports waste: %+v", base)
	}
	// One wasted map attempt forces an 11th task onto 10 slots: the map
	// phase must stretch, and the waste must be itemized.
	waste := cfg.EstimateJobWithWaste(maps, reduces, []Task{{CPUSeconds: 10}}, nil)
	if waste.MapSeconds <= base.MapSeconds {
		t.Errorf("wasted attempt did not stretch the map phase: %v vs %v", waste.MapSeconds, base.MapSeconds)
	}
	if waste.WastedMapSeconds != 10 {
		t.Errorf("wasted map seconds = %v, want 10", waste.WastedMapSeconds)
	}
	if waste.ReduceSeconds != base.ReduceSeconds {
		t.Errorf("map-side waste changed the reduce phase: %v vs %v", waste.ReduceSeconds, base.ReduceSeconds)
	}
	wr := cfg.EstimateJobWithWaste(maps, reduces, nil, []Task{{CPUSeconds: 3}})
	if wr.WastedReduceSeconds != 3 {
		t.Errorf("wasted reduce seconds = %v, want 3", wr.WastedReduceSeconds)
	}
}
