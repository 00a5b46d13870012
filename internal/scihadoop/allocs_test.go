package scihadoop

import (
	"runtime"
	"runtime/debug"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/mapreduce"
)

// TestBaselineQueryAllocsPerRecord holds a simple-key query's whole record
// path — the map function, collection, the spill sort, both merges, IFile
// and grouping — to an allocation budget per map-output record. Every
// micro-benchmark sorts with a byte comparator, so nothing else in the tree
// notices when a per-record cost comes back: a target coordinate allocated
// per emitted key was about one malloc a record here, and a
// keys.RawCompareGrid that decodes its keys was 48. That comparator now runs
// only in grouping and wherever a partition or a merge falls back from
// GridWords to it; the spill sort and the merges compare words. What is
// left is about 0.1 a record. A count, so the host does not matter.
func TestBaselineQueryAllocsPerRecord(t *testing.T) {
	const splits, spill, budget = 4, 8192, 0.5
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
	t.Logf("%d records, %.2f mallocs per record", records, perRecord)
	if perRecord > budget {
		t.Errorf("%.2f mallocs per map-output record, budget %.1f: does the map function build a key's coordinate, the comparator decode, or IFile allocate per record?", perRecord, budget)
	}
}

// TestAggQueryAllocsPerCell is the same gate for the aggregation library.
// The map function of an aggregate-key query feeds every cell to nine window
// targets through aggregate.Add, and what it allocates must scale with
// flushes and emitted ranges, not with cells: a target coordinate, a biased
// copy of it and a value copy per Add were 3 mallocs a call before anything
// was sorted. Only the map function is counted — its emit is replaced by one
// that drops the pair — because at this size the engine's per-record costs
// (one record per five cells) would drown it.
func TestAggQueryAllocsPerCell(t *testing.T) {
	build := func(fs *hdfs.FileSystem, cfg QueryConfig) (*mapreduce.Job, error) {
		job, _, err := AggKeyJob(fs, cfg)
		return job, err
	}
	assertMapAllocsPerAdd(t, "aggregate.Add", build, 0.5,
		"does the mapper build a coordinate per target, or the aggregator copy per cell?")
}

// TestBoxQueryAllocsPerCell: the box geometry drains the same buffer, so its
// Add costs the same nothing; what is left per cell is the coordinate a
// drained offset is turned back into for GreedyBoxes. With a buffer of its
// own (a coordinate clone and a value copy per Add, a string per cell to
// look its value up again) boxagg.Add cost 6.4 mallocs a call.
func TestBoxQueryAllocsPerCell(t *testing.T) {
	assertMapAllocsPerAdd(t, "boxagg.Add", BoxKeyJob, 2.0,
		"does the aggregator copy per cell, or look values up by coordinate string?")
}

// TestAggQueryBytesPerCell holds the bytes the aggregate-key map function
// allocates, per cell it adds, over a job of several tasks at the default
// flush threshold. A map task's buffer, sort scratch and value arena come
// from the storage an earlier task released; when every task regrew its own
// from 1 024 cells, this job allocated 102 bytes per Add (99 since a flush
// lends each layer's values instead of copying them into a fresh block);
// when every task finds pooled storage, 0.8. One task regrowing its storage
// adds about 24.3 bytes per Add, so the budget sits about halfway to that.
func TestAggQueryBytesPerCell(t *testing.T) {
	build := func(fs *hdfs.FileSystem, cfg QueryConfig) (*mapreduce.Job, error) {
		job, _, err := AggKeyJob(fs, cfg)
		return job, err
	}
	assertMapBytesPerAdd(t, "aggregate.AddIndex", build, 12,
		"does each map task regrow its aggregation buffer instead of taking the pooled one?")
}

// TestBoxQueryBytesPerCell is the same gate for the box geometry, whose
// drain also builds a coordinate per buffered cell; regrowing the buffer in
// every task cost it 145 bytes per Add, pooled storage 48.3, and one task
// regrowing it 72.6.
func TestBoxQueryBytesPerCell(t *testing.T) {
	assertMapBytesPerAdd(t, "boxagg.AddIndex", BoxKeyJob, 60,
		"does each map task regrow its aggregation buffer instead of taking the pooled one?")
}

// assertMapAllocsPerAdd runs build's query with a flush threshold the map
// tasks cross several times and holds the mallocs of its map function, per
// cell it adds, to budget.
func assertMapAllocsPerAdd(t *testing.T, add string, build func(*hdfs.FileSystem, QueryConfig) (*mapreduce.Job, error), budget float64, hint string) {
	const splits, flush = 4, 500
	extent := grid.NewBox(grid.Coord{0, 0}, []int{32, 32})
	adds := extent.NumCells() * 9
	if flushes := adds / (splits * flush); flushes < 3 {
		t.Fatalf("about %d flushes per task: the run must cross the threshold at least 3 times", flushes)
	}
	mallocs, _, pairs := mapCostPerAdd(t, build, extent, splits, flush)
	t.Logf("%d Add calls, %d pairs, %.2f mallocs per call", adds, pairs, mallocs)
	if pairs == 0 || mallocs > budget {
		t.Errorf("%d pairs, %.2f mallocs per %s, budget %.1f: %s", pairs, mallocs, add, budget, hint)
	}
}

// assertMapBytesPerAdd runs build's query over four tasks at the default
// flush threshold and holds the bytes its map function allocates, per cell
// it adds, to budget. It measures from a known pool state: one unmeasured
// run of the job first leaves its storage pooled; the garbage collector,
// which empties sync.Pool, is held off until the measured run is done; and
// both runs get one P, since a pooled item a task put back on one P is not
// seen by a task that runs on another. So neither the tests before it nor GC
// timing nor the scheduler moves the reading. The race
// detector makes sync.Pool drop a quarter of what it is given, so there the
// gate does not hold.
func assertMapBytesPerAdd(t *testing.T, add string, build func(*hdfs.FileSystem, QueryConfig) (*mapreduce.Job, error), budget float64, hint string) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	const splits = 4
	extent := grid.NewBox(grid.Coord{0, 0}, []int{64, 64})
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mapCostPerAdd(t, build, extent, splits, 0)
	_, bytes, pairs := mapCostPerAdd(t, build, extent, splits, 0)
	t.Logf("%d Add calls, %d pairs, %.1f bytes per call", extent.NumCells()*9, pairs, bytes)
	if pairs == 0 || bytes > budget {
		t.Errorf("%d pairs, %.1f bytes allocated per %s, budget %.0f: %s", pairs, bytes, add, budget, hint)
	}
}

// mapCostPerAdd runs build's radius-1 query over extent in splits map
// tasks and returns what its map function allocates per cell it adds, in
// mallocs and in bytes, and the pairs it emitted. Only the map function is
// counted — its emit is replaced by one that drops the pair — because at
// this size the engine's per-record costs (one record per five cells) would
// drown it.
func mapCostPerAdd(t *testing.T, build func(*hdfs.FileSystem, QueryConfig) (*mapreduce.Job, error), extent grid.Box, splits, flush int) (mallocs, bytes float64, pairs int) {
	t.Helper()
	fs, ds, _ := setup(t, extent)
	job, err := build(fs, QueryConfig{DS: ds, Radius: 1, NumSplits: splits, NumReducers: 3, FlushCells: flush})
	if err != nil {
		t.Fatal(err)
	}
	var nMallocs, nBytes uint64
	newMapper := job.NewMapper
	job.NewMapper = func() mapreduce.Mapper {
		inner := newMapper()
		return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, _ mapreduce.Emit) error {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := inner.Map(ctx, split, func(k, v []byte) { pairs++ })
			runtime.ReadMemStats(&after)
			nMallocs += after.Mallocs - before.Mallocs
			nBytes += after.TotalAlloc - before.TotalAlloc
			return err
		})
	}
	if _, err := mapreduce.Run(job); err != nil {
		t.Fatal(err)
	}
	adds := float64(extent.NumCells() * 9)
	return float64(nMallocs) / adds, float64(nBytes) / adds, pairs
}
