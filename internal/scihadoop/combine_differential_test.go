package scihadoop

import (
	"fmt"
	"testing"

	"scikey/internal/faults"
	"scikey/internal/grid"
	"scikey/internal/mapreduce"
)

// TestCombineValidatesBeforeFolding pins the validate-then-combine ordering
// at the configuration that exposed its absence (scijob's default 64x64
// grid, 10 splits, 5 reducers): under seed 7 the injected bit-flips in map
// 0's committed partition-0 segment leave the IFile framing parseable, so
// without the up-front validation scan a garbage 19-byte value reached the
// Monoid before the CRC trailer check and the job died with a combiner
// merge error. With member segments validated end to end first, the
// corruption surfaces as ErrCorruptSegment, the producer re-runs, and the
// recovered run's outputs and combine accounting match the fault-free
// combined run exactly.
func TestCombineValidatesBeforeFolding(t *testing.T) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{64, 64})
	fs, ds, _ := setup(t, extent)

	run := func(spec string) ([]string, *mapreduce.Counters) {
		var inj *faults.Injector
		if spec != "" {
			var err error
			if inj, err = faults.NewFromSpec(spec); err != nil {
				t.Fatalf("bad fault spec %q: %v", spec, err)
			}
		}
		cfg := QueryConfig{
			DS: ds, Op: Max, NumSplits: 10, NumReducers: 5,
			Combine: true, CombineNodes: 1,
			RunOptions: mapreduce.RunOptions{Faults: inj, Retry: mapreduce.RetryPolicy{MaxAttempts: 3}},
			OutputPath: fmt.Sprintf("/out/comb-validate-%v", spec != ""),
		}
		job, _, err := SimpleKeyJob(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mapreduce.Run(job)
		if err != nil {
			t.Fatalf("faults=%q: %v", spec, err)
		}
		outs := make([]string, len(res.OutputPaths))
		for i, p := range res.OutputPaths {
			data, err := fs.ReadAll(p)
			if err != nil {
				t.Fatal(err)
			}
			outs[i] = string(data)
		}
		return outs, res.Counters
	}

	cleanOuts, clean := run("")
	faultOuts, faulty := run("seed=7;segment:0.0:corrupt@0")
	for i := range cleanOuts {
		if cleanOuts[i] != faultOuts[i] {
			t.Errorf("partition %d output differs from fault-free combined run", i)
		}
	}
	if faulty.CorruptSegmentsDetected.Value() == 0 {
		t.Error("corruption not detected; the fault exercised nothing")
	}
	if faulty.MapTasksRecovered.Value() == 0 {
		t.Error("no map task recovered for the corrupt member segment")
	}
	for _, s := range []struct {
		name      string
		got, want int64
	}{
		{"CombineMergedRecords", faulty.CombineMergedRecords.Value(), clean.CombineMergedRecords.Value()},
		{"CombineEmittedRecords", faulty.CombineEmittedRecords.Value(), clean.CombineEmittedRecords.Value()},
		{"CombineSavedBytes", faulty.CombineSavedBytes.Value(), clean.CombineSavedBytes.Value()},
		{"ReduceShuffleBytes", faulty.ReduceShuffleBytes.Value(), clean.ReduceShuffleBytes.Value()},
	} {
		if s.got != s.want {
			t.Errorf("%s = %d recovered, %d fault-free", s.name, s.got, s.want)
		}
	}
}

// TestCombineRejectsMedian: the paper's holistic median has no value monoid,
// so requesting combining must fail at build time for every key geometry.
func TestCombineRejectsMedian(t *testing.T) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{12, 8})
	fs, ds, _ := setup(t, extent)
	cfg := QueryConfig{DS: ds, Op: Median, Combine: true}
	if _, _, err := SimpleKeyJob(fs, cfg); err == nil {
		t.Error("simple-key median accepted combining")
	}
	if _, _, err := AggKeyJob(fs, cfg); err == nil {
		t.Error("agg-key median accepted combining")
	}
	if _, err := BoxKeyJob(fs, cfg); err == nil {
		t.Error("box-key median accepted combining")
	}
	if _, err := CombinerFor(Median); err == nil {
		t.Error("CombinerFor(Median) returned a combiner")
	}
}
