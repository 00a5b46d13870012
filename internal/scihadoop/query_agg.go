package scihadoop

import (
	"encoding/binary"
	"fmt"
	"slices"

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
	radius := cfg.Radius
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

	aggKeyHooks(job, kc, rp)

	job.NewMapper = func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
			box := split.Data.(grid.Box)
			slab, err := readSlab(ctx, ds, box)
			if err != nil {
				return err
			}
			// emit copies the key, so one scratch key serves the task.
			scratch := serial.NewDataOutput(24)
			agg := aggregate.New(aggregate.Config{
				Mapping:    mapping,
				Var:        v,
				ElemSize:   ElemSize,
				FlushCells: flush,
				Emit: func(p keys.AggPair) {
					scratch.Reset()
					kc.EncodeAgg(scratch, p.Key)
					emit(scratch.Bytes(), p.Values)
				},
			})
			eachWindowIndex(slab, box, radius, aggregate.IndexFunc(mapping), agg.AddIndex)
			agg.Close()
			return nil
		})
	}

	job.NewReducer = func() mapreduce.Reducer {
		return &aggReducer{kc: kc, op: op, reagg: reagg}
	}
	return job, mapping, nil
}

// aggKeyHooks installs Section IV-B's two key splits and the window cut
// that streams the second, on encoded keys: AggBounds reads a key's
// variable section and bounds in place, a key that stays whole is passed
// on as the bytes it arrived as, and a fragment's key is a fresh header
// over the same variable section while its value is a sub-slice of the
// whole key's value.
func aggKeyHooks(job *mapreduce.Job, kc *keys.Codec, rp keys.RangePartitioner) {
	// Case one: split aggregate keys at routing time.
	boundaries := rp.Boundaries()
	job.PartitionSplit = func(dst []mapreduce.RoutedKV, key, value []byte, n int) []mapreduce.RoutedKV {
		prefix, lo, hi := aggBounds(kc, key)
		first := rp.PartitionOf(lo)
		if first == rp.PartitionOf(hi-1) {
			return append(dst, mapreduce.RoutedKV{Partition: first, KV: mapreduce.KV{Key: key, Value: value}})
		}
		at := lo
		for _, b := range boundaries {
			if b <= at {
				continue
			}
			if b >= hi {
				break
			}
			dst = append(dst, fragment(prefix, lo, at, b, value, rp.PartitionOf(at)))
			at = b
		}
		return append(dst, fragment(prefix, lo, at, hi, value, rp.PartitionOf(at)))
	}

	// Case two: split overlapping keys at the reducer (Fig. 7).
	job.MergeTransform = func(pairs []mapreduce.KV) []mapreduce.KV {
		return splitOverlapsRaw(kc, pairs)
	}

	// Streaming window cut for the transform above: it rewrites
	// transitively-overlapping clusters independently, starting a new
	// cluster exactly when a key's range begins at or past the running max
	// Hi (or the variable changes). Cutting the merged stream on that same
	// boundary keeps the windowed transform byte-identical to running it
	// over the whole partition.
	job.MergeCut = func() func(key []byte) bool {
		started := false
		var curVar []byte
		var maxHi uint64
		return func(key []byte) bool {
			prefix, lo, hi := aggBounds(kc, key)
			cut := started && (string(prefix) != string(curVar) || lo >= maxHi)
			if cut || !started {
				curVar, maxHi, started = append(curVar[:0], prefix...), hi, true
			} else if hi > maxHi {
				maxHi = hi
			}
			return cut
		}
	}
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

	// cell and out are one group's scratch, reused by the next: a cell's
	// layered values, and the folded values emitted (the engine copies what
	// it keeps) or appended to the pending range.
	cell []int32
	out  []byte

	// The pending output range: its variable section, bounds and folded
	// values, all owned and reused after each flush, and the buffer its key
	// is encoded into.
	pendingVar  []byte
	pendingLo   uint64
	pendingHi   uint64
	pendingVals []byte
	pendingKey  []byte
	hasPending  bool
}

// Reduce implements mapreduce.Reducer.
func (r *aggReducer) Reduce(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emit) error {
	prefix, lo, hi, ok := r.kc.AggBounds(key)
	if !ok {
		return fmt.Errorf("scihadoop: bad agg key %x", key)
	}
	n := int(hi - lo)
	out := r.out[:0]
	for i := 0; i < n; i++ {
		cell := r.cell[:0]
		for _, layer := range values {
			cell = append(cell, int32(binary.BigEndian.Uint32(layer[i*ElemSize:])))
		}
		r.cell = cell
		out = binary.BigEndian.AppendUint32(out, uint32(r.op.fold(cell)))
	}
	r.out = out
	if !r.reagg {
		emit(key, out)
		return nil
	}
	if r.hasPending && string(r.pendingVar) == string(prefix) && r.pendingHi == lo {
		r.pendingHi = hi
		r.pendingVals = append(r.pendingVals, out...)
		return nil
	}
	r.flush(emit)
	r.pendingVar = append(r.pendingVar[:0], prefix...)
	r.pendingLo, r.pendingHi = lo, hi
	r.pendingVals = append(r.pendingVals[:0], out...)
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
	r.pendingKey = keys.AppendAggKey(r.pendingKey[:0], r.pendingVar, r.pendingLo, r.pendingHi)
	emit(r.pendingKey, r.pendingVals)
	r.hasPending = false
}

// aggBounds is Codec.AggBounds for the hooks, which cannot return an error:
// a key that is not exactly one AggKey panics with its bytes.
func aggBounds(kc *keys.Codec, key []byte) (prefix []byte, lo, hi uint64) {
	prefix, lo, hi, ok := kc.AggBounds(key)
	if !ok {
		panic(fmt.Sprintf("scihadoop: bad agg key %x", key))
	}
	return prefix, lo, hi
}

// fragment routes the [a,b) part of the key prefix ‖ lo ‖ hi whose value
// is value.
func fragment(prefix []byte, lo, a, b uint64, value []byte, part int) mapreduce.RoutedKV {
	return mapreduce.RoutedKV{Partition: part, KV: mapreduce.KV{
		Key:   keys.AppendAggKey(make([]byte, 0, len(prefix)+16), prefix, a, b),
		Value: value[(a-lo)*ElemSize : (b-lo)*ElemSize],
	}}
}

// splitOverlapsRaw is keys.SplitOverlaps on a CompareAgg-sorted run of
// encoded pairs, and yields the same bytes in the same order. A cluster of
// one passes through as it is, and a window with no larger cluster is
// returned unchanged; a larger cluster is cut by splitClusterRaw.
func splitOverlapsRaw(kc *keys.Codec, pairs []mapreduce.KV) []mapreduce.KV {
	var out []mapreduce.KV // nil while every cluster so far passed through
	for start := 0; start < len(pairs); {
		prefix, _, maxHi := aggBounds(kc, pairs[start].Key)
		end := start + 1
		for ; end < len(pairs); end++ {
			p, lo, hi := aggBounds(kc, pairs[end].Key)
			if string(p) != string(prefix) || lo >= maxHi {
				break
			}
			maxHi = max(maxHi, hi)
		}
		switch {
		case end-start > 1:
			if out == nil {
				out = append([]mapreduce.KV(nil), pairs[:start]...)
			}
			out = splitClusterRaw(out, pairs[start:end], len(prefix))
		case out != nil:
			out = append(out, pairs[start])
		}
		start = end
	}
	if out == nil {
		return pairs
	}
	return out
}

// smallCluster is the largest cluster splitClusterRaw serves from its stack
// scratch. oneshot-agg's clusters are 9 to 60 members but for about one in
// eight, which run to about 200.
const smallCluster = 64

// splitClusterRaw appends the fragments of one cluster of transitively
// overlapping keys (same variable section, varLen bytes long) to out.
// Between two consecutive distinct bounds [a,b) it emits every member that
// covers the interval, in member order: intervals ascend and members arrive
// sorted, which is the order keys.SplitOverlaps' stable sort produces, so
// nothing is sorted here. A fragment that is its whole key reuses the
// member's bytes; the others take their headers from one arena. The cuts and
// the active set never leave the call: a cluster of up to smallCluster
// members keeps both on the stack.
func splitClusterRaw(out, members []mapreduce.KV, varLen int) []mapreduce.KV {
	bounds := func(kv mapreduce.KV) (lo, hi uint64) {
		return binary.BigEndian.Uint64(kv.Key[varLen:]), binary.BigEndian.Uint64(kv.Key[varLen+8:])
	}
	var cutsBuf [2 * smallCluster]uint64
	var activeBuf [smallCluster]int
	cuts, active := cutsBuf[:0], activeBuf[:0] // active: members covering [a,b), in order
	if len(members) > smallCluster {
		cuts, active = make([]uint64, 0, 2*len(members)), make([]int, 0, len(members))
	}
	for _, m := range members {
		lo, hi := bounds(m)
		cuts = append(cuts, lo, hi)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)

	// Size the output and the arena: a member spans the intervals between
	// its two bounds' positions among the cuts.
	frags, split := 0, 0
	for _, m := range members {
		lo, hi := bounds(m)
		i, _ := slices.BinarySearch(cuts, lo)
		j, _ := slices.BinarySearch(cuts, hi)
		frags += j - i
		if j-i > 1 {
			split += j - i
		}
	}
	out = slices.Grow(out, frags)
	hdr := varLen + 16
	arena := make([]byte, 0, split*hdr)

	next := 0
	for c := 0; c+1 < len(cuts); c++ {
		a, b := cuts[c], cuts[c+1]
		live := active[:0]
		for _, m := range active {
			if _, hi := bounds(members[m]); hi > a {
				live = append(live, m)
			}
		}
		active = live
		for ; next < len(members); next++ {
			if lo, _ := bounds(members[next]); lo > a {
				break
			}
			active = append(active, next)
		}
		for _, m := range active {
			kv := members[m]
			lo, hi := bounds(kv)
			if lo == a && hi == b {
				out = append(out, kv)
				continue
			}
			arena = keys.AppendAggKey(arena, kv.Key[:varLen], a, b)
			out = append(out, mapreduce.KV{
				Key:   arena[len(arena)-hdr : len(arena) : len(arena)],
				Value: kv.Value[(a-lo)*ElemSize : (b-lo)*ElemSize],
			})
		}
	}
	return out
}
