package cluster

// Retired from the shipped package: nothing a binary runs calls the code in
// this file (scripts/reach). It is parked next to the only test that uses it
// because the floor rule lets a PR drop no more than a few tests at once;
// delete the function and its test together, whenever a PR has room.

import "testing"

// add accumulates another footprint.
func (t *Task) add(o Task) {
	t.DiskBytes += o.DiskBytes
	t.NetBytes += o.NetBytes
	t.CPUSeconds += o.CPUSeconds
}

func TestTaskAdd(t *testing.T) {
	a := Task{DiskBytes: 1, NetBytes: 2, CPUSeconds: 3}
	a.add(Task{DiskBytes: 10, NetBytes: 20, CPUSeconds: 30})
	if a.DiskBytes != 11 || a.NetBytes != 22 || a.CPUSeconds != 33 {
		t.Errorf("add = %+v", a)
	}
}
