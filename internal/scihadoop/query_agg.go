package scihadoop

import (
	"encoding/binary"
	"fmt"

	"scikey/internal/aggregate"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/serial"
)

// AggKeyJob builds the Section IV job: mapper output flows through the
// aggregation library into aggregate keys on a space-filling curve; a range
// partitioner splits keys that straddle reducer shards (Section IV-B case
// one); each reducer's merged stream is overlap-split (case two, Fig. 7)
// before grouping; reducers fold each cell across its layered values and
// emit aggregated output.
//
// The returned Mapping converts output aggregate keys back to coordinates.
func AggKeyJob(fs *hdfs.FileSystem, cfg QueryConfig) (*mapreduce.Job, aggregate.Mapping, error) {
	cfg, job, err := cfg.job(fs)
	if err != nil {
		return nil, nil, err
	}
	// The output domain includes the halo: a mapper for (0,0)-(9,9)
	// produces output in (-1,-1)-(10,10).
	domain := cfg.DS.Extent.Expand(cfg.Radius)
	mapping, err := aggregate.MappingFor(cfg.Curve, domain)
	if err != nil {
		return nil, nil, err
	}
	kc := &keys.Codec{Rank: cfg.DS.Extent.Rank(), Mode: cfg.KeyMode}
	offsets := window(cfg.DS.Extent.Rank(), cfg.Radius)
	rp := keys.RangePartitioner{Total: mapping.Total(), NumReducers: cfg.NumReducers}
	ds := cfg.DS
	v := cfg.DS.Var
	op := cfg.Op
	flush := cfg.FlushCells
	reagg := cfg.Reaggregate

	// In-node combining (job.Combine) is sound for aggregate keys because
	// lane-wise max commutes with the key-splitting rewrites: slicing a
	// folded layer equals folding the slices, so combined segments split
	// into the same fragments with the same folded cells.
	job.Name = fmt.Sprintf("%s-agg-%s", op, cfg.Curve)
	job.Compare = kc.RawCompareAgg

	// Section IV-B, case one: split aggregate keys at routing time.
	job.PartitionSplit = func(key, value []byte, n int) []mapreduce.RoutedKV {
		k, err := kc.DecodeAgg(serial.NewDataInput(key))
		if err != nil {
			panic(fmt.Sprintf("scihadoop: bad agg key: %v", err))
		}
		frags := rp.SplitForPartition(keys.AggPair{Key: k, Values: value}, ElemSize)
		out := make([]mapreduce.RoutedKV, len(frags))
		for i, f := range frags {
			out[i] = mapreduce.RoutedKV{
				Partition: f.Partition,
				KV:        mapreduce.KV{Key: kc.AggKeyBytes(f.Pair.Key), Value: f.Pair.Values},
			}
		}
		return out
	}

	// Section IV-B, case two: split overlapping keys at the reducer.
	job.MergeTransform = func(pairs []mapreduce.KV) []mapreduce.KV {
		aps := make([]keys.AggPair, len(pairs))
		for i, p := range pairs {
			k, err := kc.DecodeAgg(serial.NewDataInput(p.Key))
			if err != nil {
				panic(fmt.Sprintf("scihadoop: bad agg key in merge: %v", err))
			}
			aps[i] = keys.AggPair{Key: k, Values: p.Value}
		}
		split := keys.SplitOverlaps(aps, ElemSize)
		out := make([]mapreduce.KV, len(split))
		for i, p := range split {
			out[i] = mapreduce.KV{Key: kc.AggKeyBytes(p.Key), Value: p.Values}
		}
		return out
	}

	// Streaming window cut for the transform above: SplitOverlaps
	// rewrites transitively-overlapping clusters independently, starting
	// a new cluster exactly when a key's range begins at or past the
	// running max Hi (or the variable changes). Cutting the merged
	// stream on that same boundary keeps the windowed transform
	// byte-identical to running it over the whole partition.
	job.MergeCut = func() func(key []byte) bool {
		started := false
		var curVar keys.VarRef
		var maxHi uint64
		return func(key []byte) bool {
			k, err := kc.DecodeAgg(serial.NewDataInput(key))
			if err != nil {
				panic(fmt.Sprintf("scihadoop: bad agg key in merge cut: %v", err))
			}
			cut := started && (k.Var != curVar || k.Range.Lo >= maxHi)
			if cut || !started {
				curVar, maxHi, started = k.Var, k.Range.Hi, true
			} else if k.Range.Hi > maxHi {
				maxHi = k.Range.Hi
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
			agg := aggregate.New(aggregate.Config{
				Mapping:    mapping,
				Var:        v,
				ElemSize:   ElemSize,
				FlushCells: flush,
				Emit: func(p keys.AggPair) {
					emit(kc.AggKeyBytes(p.Key), p.Values)
				},
			})
			eachWindowTarget(slab, box, offsets, agg.Add)
			agg.Close()
			return nil
		})
	}

	job.NewReducer = func() mapreduce.Reducer {
		return &aggReducer{kc: kc, op: op, reagg: reagg}
	}
	return job, mapping, nil
}

// aggReducer folds each cell of an aggregate-key group across its layered
// values. With reagg set it additionally re-aggregates its output: since
// groups arrive in curve order, output ranges that became fragmented by key
// splitting are coalesced back into maximal contiguous ranges — the
// follow-up Section IV-B sketches ("[aggregation] could also be performed
// in other places to offset the increase in key count caused by key
// splitting").
type aggReducer struct {
	kc    *keys.Codec
	op    Op
	reagg bool

	pending     keys.AggKey
	pendingVals []byte
	hasPending  bool
}

// Reduce implements mapreduce.Reducer.
func (r *aggReducer) Reduce(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emit) error {
	k, err := r.kc.DecodeAgg(serial.NewDataInput(key))
	if err != nil {
		return err
	}
	n := int(k.Range.Len())
	out := make([]byte, 0, n*ElemSize)
	cell := make([]int32, 0, len(values))
	for i := 0; i < n; i++ {
		cell = cell[:0]
		for _, layer := range values {
			cell = append(cell, int32(binary.BigEndian.Uint32(layer[i*ElemSize:])))
		}
		out = binary.BigEndian.AppendUint32(out, uint32(r.op.fold(cell)))
	}
	if !r.reagg {
		emit(key, out)
		return nil
	}
	if r.hasPending && r.pending.Var == k.Var && r.pending.Range.Hi == k.Range.Lo {
		r.pending.Range.Hi = k.Range.Hi
		r.pendingVals = append(r.pendingVals, out...)
		return nil
	}
	r.flush(emit)
	r.pending = k
	r.pendingVals = out
	r.hasPending = true
	return nil
}

// Finish implements mapreduce.Finalizer.
func (r *aggReducer) Finish(ctx *mapreduce.TaskContext, emit mapreduce.Emit) error {
	r.flush(emit)
	return nil
}

func (r *aggReducer) flush(emit mapreduce.Emit) {
	if !r.hasPending {
		return
	}
	emit(r.kc.AggKeyBytes(r.pending), r.pendingVals)
	r.hasPending = false
	r.pendingVals = nil
}
