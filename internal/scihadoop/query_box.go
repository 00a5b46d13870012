package scihadoop

import (
	"encoding/binary"
	"fmt"

	"scikey/internal/aggregate"
	"scikey/internal/boxagg"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/serial"
)

// BoxKeyJob builds the n-dimensional-aggregation variant of the query: the
// alternative Section IV-A calls "ideal" but sets aside as difficult
// (Fig. 5). Mapper output is greedily boxed into (corner, size) aggregate
// keys; a slab partitioner splits boxes across reducers along dimension 0;
// the reduce-side merge splits unequal overlapping boxes along arrangement
// cuts. Functionally interchangeable with AggKeyJob — same query, same
// results — so the two aggregation geometries can be compared head-to-head.
func BoxKeyJob(fs *hdfs.FileSystem, cfg QueryConfig) (*mapreduce.Job, error) {
	cfg, job, err := cfg.job(fs)
	if err != nil {
		return nil, err
	}
	domain := cfg.DS.Extent.Expand(cfg.Radius)
	kc := &keys.Codec{Rank: cfg.DS.Extent.Rank(), Mode: cfg.KeyMode}
	mapping := aggregate.BoxMapping{Domain: domain}
	radius := cfg.Radius
	sp := boxagg.NewSlabPartitioner(domain, cfg.NumReducers)
	ds := cfg.DS
	v := cfg.DS.Var
	op := cfg.Op
	flush := cfg.FlushCells

	job.Name = fmt.Sprintf("%s-boxagg", op)
	job.Compare = kc.RawCompareBox

	job.PartitionSplit = func(dst []mapreduce.RoutedKV, key, value []byte, n int) []mapreduce.RoutedKV {
		k, err := kc.DecodeBox(serial.NewDataInput(key))
		if err != nil {
			panic(fmt.Sprintf("scihadoop: bad box key: %v", err))
		}
		frags := sp.SplitForPartition(boxagg.Pair{Key: k, Values: value}, ElemSize)
		for _, f := range frags {
			dst = append(dst, mapreduce.RoutedKV{
				Partition: f.Partition,
				KV:        mapreduce.KV{Key: kc.BoxKeyBytes(f.Pair.Key), Value: f.Pair.Values},
			})
		}
		return dst
	}

	job.MergeTransform = func(pairs []mapreduce.KV) []mapreduce.KV {
		bps := make([]boxagg.Pair, len(pairs))
		for i, p := range pairs {
			k, err := kc.DecodeBox(serial.NewDataInput(p.Key))
			if err != nil {
				panic(fmt.Sprintf("scihadoop: bad box key in merge: %v", err))
			}
			bps[i] = boxagg.Pair{Key: k, Values: p.Value}
		}
		split := boxagg.SplitOverlaps(bps, ElemSize)
		out := make([]mapreduce.KV, len(split))
		for i, p := range split {
			out[i] = mapreduce.KV{Key: kc.BoxKeyBytes(p.Key), Value: p.Values}
		}
		return out
	}

	// Streaming window cut matching boxagg.SplitOverlaps' dim-0
	// clustering: a new cluster starts exactly when a box's Corner[0]
	// reaches the running max upper bound (or the variable changes), so
	// the windowed transform is byte-identical to the whole-partition
	// rewrite.
	job.MergeCut = func() func(key []byte) bool {
		started := false
		var curVar keys.VarRef
		maxHi := 0
		return func(key []byte) bool {
			k, err := kc.DecodeBox(serial.NewDataInput(key))
			if err != nil {
				panic(fmt.Sprintf("scihadoop: bad box key in merge cut: %v", err))
			}
			hi := k.Box.Corner[0] + k.Box.Size[0]
			cut := started && (k.Var != curVar || k.Box.Corner[0] >= maxHi)
			if cut || !started {
				curVar, maxHi, started = k.Var, hi, true
			} else if hi > maxHi {
				maxHi = hi
			}
			return cut
		}
	}

	job.NewMapper = func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
			box := split.Data.(grid.Box)
			slab, err := readSlab(ctx, ds, box)
			if err != nil {
				return err
			}
			agg := boxagg.New(boxagg.Config{
				Domain:     domain,
				Var:        v,
				ElemSize:   ElemSize,
				FlushCells: flush,
				Emit: func(p boxagg.Pair) {
					emit(kc.BoxKeyBytes(p.Key), p.Values)
				},
			})
			eachWindowIndex(slab, box, radius, mapping.Index, agg.AddIndex)
			agg.Close()
			return nil
		})
	}

	job.NewReducer = func() mapreduce.Reducer {
		return mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emit) error {
			k, err := kc.DecodeBox(serial.NewDataInput(key))
			if err != nil {
				return err
			}
			n := int(k.Box.NumCells())
			out := make([]byte, 0, n*ElemSize)
			cell := make([]int32, 0, len(values))
			for i := 0; i < n; i++ {
				cell = cell[:0]
				for _, layer := range values {
					cell = append(cell, int32(binary.BigEndian.Uint32(layer[i*ElemSize:])))
				}
				out = binary.BigEndian.AppendUint32(out, uint32(op.fold(cell)))
			}
			emit(key, out)
			return nil
		})
	}
	return job, nil
}

// ReadBoxOutput decodes the output of a BoxKeyJob into per-cell results.
func ReadBoxOutput(fs *hdfs.FileSystem, res *mapreduce.Result, kc *keys.Codec) (CellResults, error) {
	out := make(CellResults)
	if err := eachOutputRecord(fs, res, func(kb, vb []byte) error {
		k, err := kc.DecodeBox(serial.NewDataInput(kb))
		if err != nil {
			return err
		}
		i := 0
		grid.ForEach(k.Box, func(c grid.Coord) {
			out[c.String()] = int32(binary.BigEndian.Uint32(vb[i*ElemSize:]))
			i++
		})
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
