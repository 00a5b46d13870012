package scihadoop

import (
	"runtime"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/mapreduce"
)

// TestBaselineQueryAllocsPerRecord holds the production comparator and the
// IFile path to an allocation budget per map-output record. Every
// micro-benchmark sorts with a byte comparator, so nothing else in the tree
// notices when keys.RawCompareGrid — the Compare of every simple-key query,
// called ~20 times per record across the spill sort, both merges and the
// grouping loop — starts allocating: decoding both keys cost 48 mallocs a
// record here, in place it is about 2. A count, so the host does not matter.
func TestBaselineQueryAllocsPerRecord(t *testing.T) {
	const splits, spill, budget = 4, 8192, 6
	extent := grid.NewBox(grid.Coord{0, 0}, []int{32, 32})
	fs, ds, _ := setup(t, extent)
	job, _, err := SimpleKeyJob(fs, QueryConfig{DS: ds, Radius: 1, NumSplits: splits, NumReducers: 3})
	if err != nil {
		t.Fatal(err)
	}
	job.SpillBufferBytes = spill
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := mapreduce.Run(job)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	records := c.MapOutputRecords.Value()
	if spills := c.MapOutputBytes.Value() / (splits * spill); spills < 3 || c.SpilledRecords.Value() < 2*records {
		t.Fatalf("about %d spills per task, %d spilled for %d map output records: the run must spill at least 3 times and merge",
			spills, c.SpilledRecords.Value(), records)
	}
	perRecord := float64(after.Mallocs-before.Mallocs) / float64(records)
	t.Logf("%d records, %.1f mallocs per record", records, perRecord)
	if perRecord > budget {
		t.Errorf("%.1f mallocs per map-output record, budget %d: does the job's comparator decode, or IFile allocate per record?", perRecord, budget)
	}
}
