package mapreduce

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"scikey/internal/obs"
)

// counterWireOrder is the order Snapshot carried values in at 4df439a, by
// Counters field name. Workers, the coordinator journal and cached
// map-phase snapshots store values by this position, so counterTable may
// only ever grow at the end.
var counterWireOrder = []string{
	"MapInputRecords", "MapInputBytes",
	"MapOutputRecords", "MapOutputBytes",
	"MapOutputKeyBytes", "MapOutputValueBytes",
	"MapOutputMaterializedBytes",
	"CombineInputRecords", "CombineOutputRecords", "SpilledRecords",
	"PartitionKeySplits", "OverlapKeySplits",
	"ReduceShuffleBytes", "ReduceInputGroups",
	"ReduceInputRecords", "ReduceOutputRecords", "ReduceOutputBytes",
	"MapAttemptsFailed", "ReduceAttemptsFailed", "TaskRetries",
	"SpeculativeAttempts", "SpeculativeWasted",
	"CorruptSegmentsDetected", "MapTasksRecovered",
	"ShuffleFetches", "ShuffleFetchRetries", "ShuffleFetchesResumed",
	"ShuffleFetchWastedBytes", "ShuffleBreakerTrips",
	"CombineMergedRecords", "CombineEmittedRecords", "CombineSavedBytes",
}

// TestCounterTablePinned holds the counter table to what the four
// hand-written lists it replaced produced at 4df439a: the wire order, the
// snapshot vector, the Hadoop-style rendering and the published Prometheus
// text of one Counters whose j-th declared field holds 101+j.
func TestCounterTablePinned(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	fieldOf := make(map[*Counter]string)
	for j := 0; j < v.NumField(); j++ {
		f := v.Field(j).Addr().Interface().(*Counter)
		f.Add(int64(101 + j))
		fieldOf[f] = v.Type().Field(j).Name
	}
	if len(counterTable) != v.NumField() {
		t.Fatalf("counterTable has %d rows for %d Counters fields", len(counterTable), v.NumField())
	}
	var order []string
	for _, row := range counterTable {
		order = append(order, fieldOf[row.at(&c)])
	}
	if !reflect.DeepEqual(order, counterWireOrder) {
		t.Fatalf("counterTable order moved:\n got %v\nwant %v", order, counterWireOrder)
	}

	want := make([]int64, 32)
	for i := range want {
		want[i] = int64(101 + i)
	}
	if got := c.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot = %v, want %v", got, want)
	}
	var back Counters
	if err := back.AddSnapshot(want); err != nil {
		t.Fatal(err)
	}
	back.Merge(&c)
	for i, got := range back.Snapshot() {
		if got != 2*want[i] {
			t.Errorf("AddSnapshot+Merge row %d = %d, want %d", i, got, 2*want[i])
		}
	}

	golden := func(name string, got []byte) {
		t.Helper()
		wantBytes, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, wantBytes) {
			t.Errorf("%s drifted from the 4df439a rendering:\n%s", name, got)
		}
	}
	golden("counters_string.golden", []byte(c.String()))
	reg := obs.NewRegistry()
	publishCounters(reg, &c)
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	golden("counters_prom.golden", prom.Bytes())
}
