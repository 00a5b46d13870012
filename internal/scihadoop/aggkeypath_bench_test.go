package scihadoop

import (
	"slices"
	"sync"
	"testing"

	"scikey/internal/aggregate"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/workload"
)

// BenchmarkAggKeyPath times Section IV's key rewrites on the traffic of the
// oneshot-agg query (side 128, 3×3 median, Z-order, 10 splits, 5 reducers):
// partition-split is one recorded map task's emits through PartitionSplit,
// merge is reducer 0's merged stream cut by MergeCut and rewritten window by
// window with MergeTransform. MB/s is key and value bytes in.
func BenchmarkAggKeyPath(b *testing.B) {
	job, emits, stream := recordAggKeyPath(b)
	bytesIn := func(kvs []mapreduce.KV) (n int64) {
		for _, kv := range kvs {
			n += int64(len(kv.Key) + len(kv.Value))
		}
		return n
	}
	b.Run("partition-split", func(b *testing.B) {
		b.SetBytes(bytesIn(emits))
		b.ReportAllocs()
		var routed []mapreduce.RoutedKV // one scratch, as the map task keeps
		for i := 0; i < b.N; i++ {
			for _, kv := range emits {
				routed = job.PartitionSplit(routed[:0], kv.Key, kv.Value, job.NumReducers)
			}
		}
		b.ReportMetric(float64(len(emits)), "records/op")
	})
	b.Run("merge", func(b *testing.B) {
		b.SetBytes(bytesIn(stream))
		b.ReportAllocs()
		window := make([]mapreduce.KV, 0, 64)
		for i := 0; i < b.N; i++ {
			cut := job.MergeCut()
			window = window[:0]
			for _, kv := range stream {
				if cut(kv.Key) && len(window) > 0 {
					job.MergeTransform(window)
					window = window[:0]
				}
				window = append(window, kv)
			}
			job.MergeTransform(window)
		}
		b.ReportMetric(float64(len(stream)), "records/op")
	})
}

// recordAggKeyPath runs the query once and returns its job, map task 0's
// emits, and reducer 0's input in merged order: every task's emits routed
// by PartitionSplit, sorted stably by the job's comparator.
func recordAggKeyPath(b *testing.B) (*mapreduce.Job, []mapreduce.KV, []mapreduce.KV) {
	b.Helper()
	extent := grid.NewBox(grid.Coord{0, 0}, []int{128, 128})
	fs := hdfs.New(1<<20, 1, []string{"n0", "n1", "n2", "n3", "n4"})
	ds := Dataset{Path: "/data/windspeed1.arr", Var: keys.VarRef{Name: "windspeed1"}, Extent: extent}
	if err := Store(fs, ds, &workload.Field{Extent: extent, Name: ds.Var.Name}); err != nil {
		b.Fatal(err)
	}
	job, _, err := AggKeyJob(fs, QueryConfig{DS: ds, Radius: 1, NumSplits: 10, NumReducers: 5, Curve: "zorder"})
	if err != nil {
		b.Fatal(err)
	}
	var mu sync.Mutex
	emits := map[int][]mapreduce.KV{}
	newMapper := job.NewMapper
	job.NewMapper = func() mapreduce.Mapper {
		inner := newMapper()
		return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
			var mine []mapreduce.KV
			err := inner.Map(ctx, split, func(k, v []byte) {
				mine = append(mine, mapreduce.KV{Key: slices.Clone(k), Value: slices.Clone(v)})
				emit(k, v)
			})
			mu.Lock()
			emits[split.ID] = mine
			mu.Unlock()
			return err
		})
	}
	if _, err := mapreduce.Run(job); err != nil {
		b.Fatal(err)
	}
	var stream []mapreduce.KV
	for id := range len(emits) {
		for _, kv := range emits[id] {
			for _, r := range job.PartitionSplit(nil, kv.Key, kv.Value, job.NumReducers) {
				if r.Partition == 0 {
					stream = append(stream, r.KV)
				}
			}
		}
	}
	slices.SortStableFunc(stream, func(a, b mapreduce.KV) int { return job.Compare(a.Key, b.Key) })
	return job, emits[0], stream
}

// BenchmarkAggregatorMapPattern is the aggregate-key query's map function as
// the aggregation library sees it, on a side-256 grid in ten splits, Z-order:
// the mapper's walk adds every cell of a split at its nine window targets —
// 59 904 adds in layers nine deep for split 0 — and the aggregator is
// closed. task is split 0 per op; tasks is all ten splits in a row per op, as
// a job's map tasks run on one process, each starting on the storage the one
// before released. MB/s is value bytes through Add: divide by four for
// Mcells/s.
func BenchmarkAggregatorMapPattern(b *testing.B) {
	extent := grid.NewBox(grid.Coord{0, 0}, []int{256, 256})
	m, err := aggregate.MappingFor("zorder", extent.Expand(1))
	if err != nil {
		b.Fatal(err)
	}
	splits := grid.Partition(extent, 10)
	slab := make([]byte, splits[0].NumCells()*ElemSize) // the largest split
	run := func(b *testing.B, boxes []grid.Box) {
		var cells, pairs int64
		for _, box := range boxes {
			cells += box.NumCells()
		}
		b.SetBytes(cells * 9 * ElemSize)
		b.ReportAllocs()
		for range b.N {
			for _, box := range boxes {
				agg := aggregate.New(aggregate.Config{Mapping: m, ElemSize: ElemSize, Emit: func(keys.AggPair) { pairs++ }})
				eachWindowIndex(slab, box, 1, aggregate.IndexFunc(m), agg.AddIndex)
				agg.Close()
			}
		}
		b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
	}
	b.Run("task", func(b *testing.B) { run(b, splits[:1]) })
	b.Run("tasks", func(b *testing.B) { run(b, splits) })
}
