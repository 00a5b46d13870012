package scihadoop

import (
	"fmt"
	"testing"

	"scikey/internal/faults"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/mapreduce"
)

// buildMaxJob builds a max-query job of the given key geometry. Max is the
// distributive operator, the only one CombinerFor accepts.
func buildMaxJob(t *testing.T, fs *hdfs.FileSystem, cfg QueryConfig, kind string) *mapreduce.Job {
	t.Helper()
	switch kind {
	case "simple":
		job, _, err := SimpleKeyJob(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return job
	case "agg":
		job, _, err := AggKeyJob(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return job
	case "box":
		job, err := BoxKeyJob(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return job
	default:
		t.Fatalf("unknown job kind %q", kind)
		return nil
	}
}

// TestCombineDifferentialQueries is the query-level byte-identity proof the
// combiner tree rests on: for every key geometry, every shuffle transport,
// and two node-group counts, the max query with in-node combining on
// produces output files byte-identical to combining off, with the
// distinct-key payload counters pinned and the shuffle no larger.
// OverlapKeySplits is deliberately NOT pinned: folding duplicate aggregate
// keys legitimately leaves fewer overlapping fragments for the reduce-side
// SplitOverlaps to cut, while the split output — and so the reduced groups —
// stays identical.
//
// Which configurations actually fold is geometry-dependent and asserted
// where guaranteed: agg and box keys carry within-task duplicates (no
// map-side combiner runs for them), so they fold at any group count; simple
// max keys are already deduped per task by the map-side combiner, so only
// the single-group run — where spatially adjacent tasks share a buffer and
// halo cells meet their duplicates — must fold.
func TestCombineDifferentialQueries(t *testing.T) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{24, 16})
	fs, ds, _ := setup(t, extent)

	shuffles := []struct {
		name string
		cfg  *mapreduce.ShuffleConfig
	}{
		{"mem", nil},
		{"tcp", &mapreduce.ShuffleConfig{Mode: mapreduce.ShuffleTCP}},
	}

	for _, kind := range []string{"simple", "agg", "box"} {
		for _, sh := range shuffles {
			for _, nodes := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/nodes=%d", kind, sh.name, nodes), func(t *testing.T) {
					run := func(combine bool) ([]string, *mapreduce.Counters) {
						cfg := QueryConfig{
							DS: ds, Op: Max, NumSplits: 4, NumReducers: 3,
							Combine: combine, CombineNodes: nodes,
							RunOptions: mapreduce.RunOptions{Shuffle: sh.cfg},
							OutputPath: fmt.Sprintf("/out/comb-%s-%s-%d-%v", kind, sh.name, nodes, combine),
						}
						job := buildMaxJob(t, fs, cfg, kind)
						res, err := mapreduce.Run(job)
						if err != nil {
							t.Fatalf("combine=%v: %v", combine, err)
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

					offOuts, off := run(false)
					onOuts, on := run(true)
					if len(onOuts) != len(offOuts) {
						t.Fatalf("output file count: combined %d, uncombined %d", len(onOuts), len(offOuts))
					}
					for i := range offOuts {
						if offOuts[i] != onOuts[i] {
							t.Errorf("partition %d output bytes differ (uncombined %d B, combined %d B)",
								i, len(offOuts[i]), len(onOuts[i]))
						}
					}
					same := []struct {
						name      string
						got, want int64
					}{
						{"MapOutputRecords", on.MapOutputRecords.Value(), off.MapOutputRecords.Value()},
						{"MapOutputMaterializedBytes", on.MapOutputMaterializedBytes.Value(), off.MapOutputMaterializedBytes.Value()},
						{"ReduceInputGroups", on.ReduceInputGroups.Value(), off.ReduceInputGroups.Value()},
						{"ReduceOutputRecords", on.ReduceOutputRecords.Value(), off.ReduceOutputRecords.Value()},
						{"ReduceOutputBytes", on.ReduceOutputBytes.Value(), off.ReduceOutputBytes.Value()},
					}
					for _, s := range same {
						if s.got != s.want {
							t.Errorf("%s = %d with combining, %d without", s.name, s.got, s.want)
						}
					}
					if got, want := on.ReduceShuffleBytes.Value(), off.ReduceShuffleBytes.Value(); got > want {
						t.Errorf("ReduceShuffleBytes grew under combining: %d > %d", got, want)
					}
					mustFold := kind != "simple" || nodes == 1
					if mustFold {
						if on.CombineMergedRecords.Value() <= 0 {
							t.Error("combining folded nothing; test exercises nothing")
						}
						if got, want := on.ReduceShuffleBytes.Value(), off.ReduceShuffleBytes.Value(); got >= want {
							t.Errorf("ReduceShuffleBytes = %d, want < uncombined %d", got, want)
						}
					}
				})
			}
		}
	}
}

// TestCombineDifferentialUnderFaults re-runs the simple-key differential
// with a corrupt combined segment: reduce-side corruption names the group
// representative (map task 0 under CombineNodes=1), recovery re-runs it and
// recombines, and the finished job is byte-identical to the uncombined
// fault-free run with the same payload counters.
func TestCombineDifferentialUnderFaults(t *testing.T) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{24, 16})
	fs, ds, _ := setup(t, extent)

	run := func(combine bool, spec string) ([]string, *mapreduce.Counters) {
		var inj *faults.Injector
		if spec != "" {
			var err error
			if inj, err = faults.NewFromSpec(spec); err != nil {
				t.Fatalf("bad fault spec %q: %v", spec, err)
			}
		}
		cfg := QueryConfig{
			DS: ds, Op: Max, NumSplits: 4, NumReducers: 3,
			Combine: combine, CombineNodes: 1,
			RunOptions: mapreduce.RunOptions{Faults: inj, Retry: mapreduce.RetryPolicy{MaxAttempts: 3}},
			OutputPath: fmt.Sprintf("/out/comb-fault-%v-%v", combine, spec != ""),
		}
		job, _, err := SimpleKeyJob(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mapreduce.Run(job)
		if err != nil {
			t.Fatalf("combine=%v faults=%q: %v", combine, spec, err)
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

	cleanOuts, clean := run(false, "")
	faultOuts, faulty := run(true, "seed=7;segment:0.0:corrupt@0")
	for i := range cleanOuts {
		if cleanOuts[i] != faultOuts[i] {
			t.Errorf("partition %d output differs from uncombined fault-free run", i)
		}
	}
	if faulty.CorruptSegmentsDetected.Value() == 0 {
		t.Error("corruption not detected; the fault exercised nothing")
	}
	if faulty.MapTasksRecovered.Value() == 0 {
		t.Error("no map task recovered for the corrupt combined segment")
	}
	if faulty.CombineMergedRecords.Value() <= 0 {
		t.Error("combining folded nothing; the differential exercises nothing")
	}
	for _, s := range []struct {
		name      string
		got, want int64
	}{
		{"ReduceInputGroups", faulty.ReduceInputGroups.Value(), clean.ReduceInputGroups.Value()},
		{"ReduceOutputRecords", faulty.ReduceOutputRecords.Value(), clean.ReduceOutputRecords.Value()},
		{"ReduceOutputBytes", faulty.ReduceOutputBytes.Value(), clean.ReduceOutputBytes.Value()},
	} {
		if s.got != s.want {
			t.Errorf("%s = %d, uncombined fault-free run = %d", s.name, s.got, s.want)
		}
	}
}

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
