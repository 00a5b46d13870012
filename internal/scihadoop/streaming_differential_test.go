package scihadoop

import (
	"fmt"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/mapreduce"
)

// cutDifferential validates a job's MergeCut end-to-end: the reduce path
// feeding SplitOverlaps bounded windows delimited by the cut predicate must
// produce output files byte-identical to the same job with MergeCut = nil —
// the whole merged partition as one window, the transform's defining form —
// with identical overlap-split accounting. The extent and split count are
// chosen so reducers actually see overlapping unequal keys.
func cutDifferential(t *testing.T, kind string, build func(*hdfs.FileSystem, QueryConfig) (*mapreduce.Job, error)) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{24, 16})
	fs, ds, _ := setup(t, extent)

	run := func(windowed bool) ([]string, int64) {
		cfg := QueryConfig{DS: ds, NumSplits: 4, NumReducers: 3,
			OutputPath: fmt.Sprintf("/out/%s-windowed-%v", kind, windowed)}
		job, err := build(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if job.MergeCut == nil {
			t.Fatalf("%s job has no MergeCut; test exercises nothing", kind)
		}
		if !windowed {
			job.MergeCut = nil
		}
		res, err := mapreduce.Run(job)
		if err != nil {
			t.Fatalf("windowed=%v: %v", windowed, err)
		}
		outs := make([]string, len(res.OutputPaths))
		for i, p := range res.OutputPaths {
			data, err := fs.ReadAll(p)
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = string(data)
		}
		return outs, res.Counters.OverlapKeySplits.Value()
	}

	wholeOuts, wholeSplits := run(false)
	cutOuts, cutSplits := run(true)
	if wholeSplits == 0 {
		t.Fatalf("whole-partition run split no overlapping %s keys; test exercises nothing", kind)
	}
	if cutSplits != wholeSplits {
		t.Errorf("overlap splits: windowed %d, whole-partition %d", cutSplits, wholeSplits)
	}
	for i := range wholeOuts {
		if wholeOuts[i] != cutOuts[i] {
			t.Errorf("partition %d output bytes differ (whole-partition %d B, windowed %d B)",
				i, len(wholeOuts[i]), len(cutOuts[i]))
		}
	}
}

// TestStreamingReduceMatchesReferenceAgg pins the curve-index cluster cut of
// aggregate keys.
func TestStreamingReduceMatchesReferenceAgg(t *testing.T) {
	cutDifferential(t, "agg", func(fs *hdfs.FileSystem, cfg QueryConfig) (*mapreduce.Job, error) {
		job, _, err := AggKeyJob(fs, cfg)
		return job, err
	})
}

// TestStreamingReduceMatchesReferenceBox is the box-geometry twin: the dim-0
// cluster cut must keep windowed boxagg.SplitOverlaps byte-identical to the
// whole-partition rewrite.
func TestStreamingReduceMatchesReferenceBox(t *testing.T) {
	cutDifferential(t, "box", BoxKeyJob)
}
