package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"

	"scikey/internal/cluster"
	"scikey/internal/codec"
	"scikey/internal/hdfs"
	"scikey/internal/ifile"
	"scikey/internal/keys"
	"scikey/internal/serial"
)

func testFS() *hdfs.FileSystem {
	return hdfs.New(1<<20, 1, []string{"n0", "n1", "n2"})
}

// wordCountJob is the canonical engine smoke test.
func wordCountJob(fs *hdfs.FileSystem, docs []string, numReducers int, comb bool) *Job {
	splits := make([]Split, len(docs))
	for i, d := range docs {
		splits[i] = Split{ID: i, Data: d}
	}
	job := &Job{
		Name:        "wordcount",
		FS:          fs,
		Splits:      splits,
		NumReducers: numReducers,
		Compare:     serial.CompareBytes,
		Partition:   keys.HashPartition,
		OutputPath:  "/out",
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
				doc := split.Data.(string)
				ctx.CountInput(1, int64(len(doc)))
				one := []byte{0, 0, 0, 1}
				for _, w := range strings.Fields(doc) {
					emit([]byte(w), one)
				}
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error {
				var sum uint32
				for _, v := range values {
					sum += binary.BigEndian.Uint32(v)
				}
				var out [4]byte
				binary.BigEndian.PutUint32(out[:], sum)
				emit(key, out[:])
				return nil
			})
		},
	}
	if comb {
		// Counts are big-endian uint32 lanes; wrap-around int32 addition is
		// the same bytes.
		job.MapCombiner = SumInt32
	}
	return job
}

// readOutput decodes all reducer output files into a map.
func readWordCounts(t *testing.T, fs *hdfs.FileSystem, paths []string) map[string]uint32 {
	t.Helper()
	out := make(map[string]uint32)
	for _, p := range paths {
		data, err := fs.ReadAll(p)
		if err != nil {
			t.Fatal(err)
		}
		r := ifile.NewReader(data)
		for {
			k, v, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			out[string(k)] += binary.BigEndian.Uint32(v)
		}
	}
	return out
}

func TestWordCount(t *testing.T) {
	docs := []string{
		"the quick brown fox",
		"the lazy dog and the quick cat",
		"fox fox fox",
	}
	for _, comb := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			fs := testFS()
			job := wordCountJob(fs, docs, 3, comb)
			job.Parallelism = par
			res, err := Run(job)
			if err != nil {
				t.Fatalf("comb=%v par=%d: %v", comb, par, err)
			}
			got := readWordCounts(t, fs, res.OutputPaths)
			want := map[string]uint32{
				"the": 3, "quick": 2, "brown": 1, "fox": 4,
				"lazy": 1, "dog": 1, "and": 1, "cat": 1,
			}
			if len(got) != len(want) {
				t.Fatalf("comb=%v: got %v", comb, got)
			}
			for w, n := range want {
				if got[w] != n {
					t.Errorf("comb=%v: count[%s] = %d, want %d", comb, w, got[w], n)
				}
			}
			c := res.Counters
			if c.MapOutputRecords.Value() != 14 {
				t.Errorf("map output records = %d, want 14", c.MapOutputRecords.Value())
			}
			if c.ReduceOutputRecords.Value() != 8 {
				t.Errorf("reduce output records = %d, want 8", c.ReduceOutputRecords.Value())
			}
			if comb && c.CombineInputRecords.Value() == 0 {
				t.Error("combiner never ran")
			}
			if c.MapOutputMaterializedBytes.Value() <= 0 {
				t.Error("materialized bytes not counted")
			}
		}
	}
}

func TestCombinerReducesSpillVolume(t *testing.T) {
	docs := []string{strings.Repeat("same word again ", 500)}
	run := func(comb bool) int64 {
		fs := testFS()
		res, err := Run(wordCountJob(fs, docs, 2, comb))
		if err != nil {
			t.Fatal(err)
		}
		return res.Counters.MapOutputMaterializedBytes.Value()
	}
	plain, combined := run(false), run(true)
	if combined >= plain {
		t.Errorf("combiner did not shrink materialized bytes: %d vs %d", combined, plain)
	}
}

func TestMapOutputCodecShrinksMaterializedBytes(t *testing.T) {
	docs := []string{strings.Repeat("aaaa bbbb cccc dddd ", 300)}
	run := func(c codec.Codec) int64 {
		fs := testFS()
		job := wordCountJob(fs, docs, 2, false)
		job.MapOutputCodec = c
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		// Output must be unaffected by the codec.
		got := readWordCounts(t, fs, res.OutputPaths)
		if got["aaaa"] != 300 {
			t.Fatalf("codec %v corrupted results: %v", c, got)
		}
		return res.Counters.MapOutputMaterializedBytes.Value()
	}
	plain := run(nil)
	zipped := run(codec.Gzip)
	if zipped >= plain {
		t.Errorf("gzip codec did not shrink map output: %d vs %d", zipped, plain)
	}
}

func TestMultipleSpills(t *testing.T) {
	// A tiny spill buffer forces many spills and a map-side merge; results
	// must be identical.
	docs := []string{strings.Repeat("alpha beta gamma delta ", 200)}
	fs := testFS()
	job := wordCountJob(fs, docs, 2, false)
	job.SpillBufferBytes = 256
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	got := readWordCounts(t, fs, res.OutputPaths)
	for _, w := range []string{"alpha", "beta", "gamma", "delta"} {
		if got[w] != 200 {
			t.Errorf("count[%s] = %d, want 200", w, got[w])
		}
	}
	if res.Counters.SpilledRecords.Value() <= res.Counters.MapOutputRecords.Value() {
		t.Error("expected re-spilling via merge to not lose records")
	}
}

func TestReduceSideOrdering(t *testing.T) {
	// Keys must arrive at each reducer sorted by the comparator.
	fs := testFS()
	splits := []Split{{ID: 0}, {ID: 1}, {ID: 2}}
	var seen []string
	job := &Job{
		Name:        "ordering",
		FS:          fs,
		Splits:      splits,
		NumReducers: 1,
		Compare:     serial.CompareBytes,
		Partition:   func([]byte, int) int { return 0 },
		OutputPath:  "/out",
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
				for i := 9; i >= 0; i-- {
					emit([]byte(fmt.Sprintf("k%d-%d", i, split.ID)), []byte("v"))
				}
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error {
				seen = append(seen, string(key))
				return nil
			})
		},
	}
	if _, err := Run(job); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 30 {
		t.Fatalf("saw %d groups, want 30", len(seen))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i-1] >= seen[i] {
			t.Fatalf("reduce keys out of order: %q then %q", seen[i-1], seen[i])
		}
	}
}

func TestMergeTransformRuns(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, []string{"a b a"}, 1, false)
	var sawPairs int
	job.MergeTransform = func(pairs []KV) []KV {
		sawPairs = len(pairs)
		// Duplicate the first pair to simulate a split.
		return append([]KV{pairs[0]}, pairs...)
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if sawPairs != 3 {
		t.Errorf("merge transform saw %d pairs, want 3", sawPairs)
	}
	if res.Counters.OverlapKeySplits.Value() != 1 {
		t.Errorf("overlap splits = %d, want 1", res.Counters.OverlapKeySplits.Value())
	}
	got := readWordCounts(t, fs, res.OutputPaths)
	if got["a"] != 3 { // one duplicated
		t.Errorf("transformed count = %d, want 3", got["a"])
	}
}

func TestPartitionSplitRouting(t *testing.T) {
	// A PartitionSplit that fans every pair out to all reducers.
	fs := testFS()
	job := wordCountJob(fs, []string{"x y"}, 3, false)
	job.Partition = nil
	job.PartitionSplit = func(dst []RoutedKV, key, value []byte, n int) []RoutedKV {
		for i := range n {
			dst = append(dst, RoutedKV{Partition: i, KV: KV{Key: key, Value: value}})
		}
		return dst
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	got := readWordCounts(t, fs, res.OutputPaths)
	if got["x"] != 3 || got["y"] != 3 {
		t.Errorf("fan-out counts = %v", got)
	}
	if res.Counters.PartitionKeySplits.Value() != 4 { // 2 keys x (3-1) extra
		t.Errorf("partition splits = %d, want 4", res.Counters.PartitionKeySplits.Value())
	}
}

func TestValidation(t *testing.T) {
	fs := testFS()
	base := func() *Job { return wordCountJob(fs, []string{"a"}, 1, false) }
	mutations := map[string]func(*Job){
		"no fs":       func(j *Job) { j.FS = nil },
		"no splits":   func(j *Job) { j.Splits = nil },
		"no mapper":   func(j *Job) { j.NewMapper = nil },
		"no reducer":  func(j *Job) { j.NewReducer = nil },
		"no reducers": func(j *Job) { j.NumReducers = 0 },
		"no compare":  func(j *Job) { j.Compare = nil },
		"no routing":  func(j *Job) { j.Partition = nil },
		"no output":   func(j *Job) { j.OutputPath = "" },
	}
	for name, mutate := range mutations {
		j := base()
		mutate(j)
		if _, err := Run(j); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestMapperError(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, []string{"a"}, 1, false)
	job.NewMapper = func() Mapper {
		return MapperFunc(func(*TaskContext, Split, Emit) error {
			return fmt.Errorf("boom")
		})
	}
	if _, err := Run(job); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("mapper error not propagated: %v", err)
	}
}

func TestFootprintsPopulated(t *testing.T) {
	fs := testFS()
	res, err := Run(wordCountJob(fs, []string{"a b c", "d e f"}, 2, false))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MapTasks) != 2 || len(res.ReduceTasks) != 2 {
		t.Fatalf("footprints: %d maps, %d reduces", len(res.MapTasks), len(res.ReduceTasks))
	}
	var disk, net int64
	for _, m := range res.MapTasks {
		disk += m.DiskBytes
	}
	for _, r := range res.ReduceTasks {
		net += r.NetBytes
	}
	if disk <= 0 {
		t.Error("map disk bytes not accounted")
	}
	if net != res.Counters.ReduceShuffleBytes.Value() {
		t.Errorf("net bytes %d != shuffle bytes %d", net, res.Counters.ReduceShuffleBytes.Value())
	}
}

func TestCountersString(t *testing.T) {
	fs := testFS()
	res, err := Run(wordCountJob(fs, []string{"a b"}, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	s := res.Counters.String()
	if !strings.Contains(s, "Map output materialized bytes=") {
		t.Errorf("counters string missing materialized bytes: %s", s)
	}
}

// TestRoundTripBinaryValues guards against accidental string conversions in
// the data path.
func TestRoundTripBinaryValues(t *testing.T) {
	fs := testFS()
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	job := &Job{
		Name:        "binary",
		FS:          fs,
		Splits:      []Split{{ID: 0}},
		NumReducers: 1,
		Compare:     serial.CompareBytes,
		Partition:   func([]byte, int) int { return 0 },
		OutputPath:  "/out",
		NewMapper: func() Mapper {
			return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
				emit([]byte{0x00, 0xff, 0x00}, payload)
				return nil
			})
		},
		NewReducer: func() Reducer {
			return ReducerFunc(func(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error {
				emit(key, values[0])
				return nil
			})
		},
		MapOutputCodec: codec.Bzip2,
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadAll(res.OutputPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	r := ifile.NewReader(data)
	k, v, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(k, []byte{0x00, 0xff, 0x00}) || !bytes.Equal(v, payload) {
		t.Error("binary payload corrupted")
	}
}

func TestReducerErrorPropagates(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, []string{"a b"}, 2, false)
	job.NewReducer = func() Reducer {
		return ReducerFunc(func(*TaskContext, []byte, [][]byte, Emit) error {
			return fmt.Errorf("reduce boom")
		})
	}
	if _, err := Run(job); err == nil || !strings.Contains(err.Error(), "reduce boom") {
		t.Errorf("reducer error not propagated: %v", err)
	}
}

func TestMapperPanicBecomesErrorInParallelMode(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, []string{"a", "b", "c", "d"}, 1, false)
	job.Parallelism = 4
	job.NewMapper = func() Mapper {
		return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
			if split.ID == 2 {
				panic("map panic")
			}
			emit([]byte("k"), []byte{0, 0, 0, 1})
			return nil
		})
	}
	_, err := Run(job)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("panic not converted to error: %v", err)
	}
}

func TestFinalizerRuns(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, []string{"x y z"}, 1, false)
	job.NewReducer = func() Reducer { return &finishingReducer{} }
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	got := readWordCounts(t, fs, res.OutputPaths)
	if got["FINAL"] != 99 {
		t.Errorf("Finish output missing: %v", got)
	}
}

type finishingReducer struct{ groups int }

func (r *finishingReducer) Reduce(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error {
	r.groups++
	return nil
}

func (r *finishingReducer) Finish(ctx *TaskContext, emit Emit) error {
	var out [4]byte
	binary.BigEndian.PutUint32(out[:], 99)
	emit([]byte("FINAL"), out[:])
	if r.groups != 3 {
		return fmt.Errorf("saw %d groups, want 3", r.groups)
	}
	return nil
}

func TestEstimateLocalityFromResult(t *testing.T) {
	fs := testFS()
	job := wordCountJob(fs, []string{"a b", "c d"}, 1, false)
	job.Splits[0].Hosts = []string{"n0"}
	job.Splits[1].Hosts = []string{"n1"}
	job.NewMapper = func() Mapper {
		return MapperFunc(func(ctx *TaskContext, split Split, emit Emit) error {
			ctx.CountInput(1, 1000)
			emit([]byte("k"), []byte{0, 0, 0, 1})
			return nil
		})
	}
	res, err := Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MapSpecs) != 2 || res.MapSpecs[0].InputBytes != 1000 {
		t.Fatalf("MapSpecs = %+v", res.MapSpecs)
	}
	est := res.EstimateLocality(clusterPaper(), []string{"n0", "n1"})
	if est.LocalTasks != 2 {
		t.Errorf("locality = %d/2", est.LocalTasks)
	}
	// Hosts that match nothing: zero locality.
	est = res.EstimateLocality(clusterPaper(), []string{"other"})
	if est.LocalTasks != 0 {
		t.Errorf("phantom locality: %d", est.LocalTasks)
	}
}

func clusterPaper() cluster.Config { return cluster.Paper() }

func TestMergeFactorMultiPass(t *testing.T) {
	// Many tiny spills with a small merge factor force extra on-disk merge
	// passes. Results must be identical; the extra passes must show up as
	// additional modeled disk traffic.
	docs := []string{strings.Repeat("w1 w2 w3 w4 w5 w6 w7 w8 ", 150)}
	run := func(factor int) (map[string]uint32, int64) {
		fs := testFS()
		job := wordCountJob(fs, docs, 2, false)
		job.SpillBufferBytes = 128 // many spills
		job.MergeFactor = factor
		res, err := Run(job)
		if err != nil {
			t.Fatal(err)
		}
		var disk int64
		for _, m := range res.MapTasks {
			disk += m.DiskBytes
		}
		for _, r := range res.ReduceTasks {
			disk += r.DiskBytes
		}
		return readWordCounts(t, fs, res.OutputPaths), disk
	}
	wideCounts, wideDisk := run(100)
	narrowCounts, narrowDisk := run(2)
	for w, n := range wideCounts {
		if narrowCounts[w] != n {
			t.Errorf("count[%s] = %d vs %d across merge factors", w, narrowCounts[w], n)
		}
	}
	if narrowDisk <= wideDisk {
		t.Errorf("factor-2 merging should cost more disk I/O: %d vs %d", narrowDisk, wideDisk)
	}
}

func BenchmarkWordCountEngine(b *testing.B) {
	docs := make([]string, 8)
	for i := range docs {
		docs[i] = strings.Repeat("alpha beta gamma delta epsilon zeta ", 200)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fs := testFS()
		if _, err := Run(wordCountJob(fs, docs, 4, true)); err != nil {
			b.Fatal(err)
		}
	}
}
