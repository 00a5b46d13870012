package scihadoop

import (
	"encoding/binary"
	"fmt"
	"time"

	"scikey/internal/codec"
	"scikey/internal/faults"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/obs"
	"scikey/internal/serial"
	"scikey/internal/stats"
)

// Op selects the window operator.
type Op int

const (
	// Median is the paper's evaluation query: holistic, so no combiner can
	// shrink map output — exactly why intermediate-data size dominates.
	Median Op = iota
	// Max is distributive; the simple-key job can run a combiner, giving
	// the engine's combiner path realistic exercise.
	Max
)

// String names the operator.
func (op Op) String() string {
	if op == Max {
		return "max"
	}
	return "median"
}

func (op Op) fold(values []int32) int32 {
	switch op {
	case Max:
		m := values[0]
		for _, v := range values[1:] {
			if v > m {
				m = v
			}
		}
		return m
	default:
		return stats.MedianInPlace(values)
	}
}

// QueryConfig parameterizes a sliding-window query job.
type QueryConfig struct {
	// DS is the input dataset.
	DS Dataset
	// Radius is the window radius; 1 gives the paper's 3x3 window.
	Radius int
	// Op is the window operator (default Median).
	Op Op
	// NumSplits is the map task count.
	NumSplits int
	// NumReducers matches the paper's 5 unless overridden.
	NumReducers int
	// KeyMode picks the simple-key variable encoding (default VarByName,
	// the paper's expensive case).
	KeyMode keys.VarMode
	// MapOutputCodec compresses spills (Section III-E's custom codec slots
	// in here). Nil disables compression.
	MapOutputCodec codec.Codec
	// CodecWorkers is the parallel block codec's pipeline width, meaningful
	// only when the map-output codec is a block+ stack: 0 means GOMAXPROCS,
	// 1 means the sequential in-line reference path, n>1 means n workers.
	// The framing is position-determined, so every width produces the same
	// bytes.
	CodecWorkers int
	// Curve names the space-filling curve for aggregate keys (default
	// "zorder").
	Curve string
	// FlushCells bounds the aggregation buffer.
	FlushCells int
	// Combine enables in-node combining: committed map outputs are pooled
	// per node group and runs of equal keys are folded with the operator's
	// value monoid before the shuffle (mapreduce.CombineConfig). Only
	// distributive operators combine; a median query rejects it at build
	// time, since no monoid over partial windows exists for a holistic
	// operator — the very property that makes the paper's median query's
	// intermediate data irreducible by combining.
	Combine bool
	// CombineNodes sets the combine node-group count (0 = one group per
	// shuffle node when networked, otherwise one group; cluster drivers
	// pass the worker count, one combine buffer per worker process).
	CombineNodes int
	// Reaggregate enables reduce-side re-aggregation of output ranges
	// (AggKeyJob only): coalesce ranges fragmented by key splitting back
	// into maximal contiguous ranges — the follow-up Section IV-B
	// mentions as future work.
	Reaggregate bool
	// OutputPath is the HDFS output directory.
	OutputPath string
	// Retry configures the engine's attempt scheduler (retries, backoff,
	// speculation). The zero value fails the job on the first task error.
	Retry mapreduce.RetryPolicy
	// Faults optionally injects deterministic failures for recovery
	// experiments. Nil disables injection.
	Faults *faults.Injector
	// Shuffle selects the shuffle transport (in-memory, in-process pipes, or
	// loopback TCP). Nil keeps the in-memory hand-off.
	Shuffle *mapreduce.ShuffleConfig
	// Timeout bounds the whole job's wall-clock time. 0 means no deadline.
	Timeout time.Duration
	// Remote, when non-nil, hands task attempts to the cluster coordinator
	// for execution in worker processes (see mapreduce.Job.Remote). Nil
	// runs everything in this process.
	Remote mapreduce.Remote
	// Parallelism caps concurrently executing task attempts. 0 keeps the
	// engine's sequential default; cluster mode wants it above 1 so several
	// workers hold grants at once.
	Parallelism int
	// Obs, when non-nil, records the job's trace spans and metrics (see
	// mapreduce.Job.Obs). Nil disables observability.
	Obs *obs.Observer
	// MapCache, with a non-empty CacheKey, lets the job reuse (and store)
	// published map-phase output across runs — the query service's shared
	// segment cache plugs in here (see mapreduce.Job.MapCache). The caller
	// derives CacheKey from everything that shapes map output bytes.
	MapCache mapreduce.MapOutputCache
	// CacheKey names this query's map output in MapCache.
	CacheKey string
}

func (c QueryConfig) withDefaults() QueryConfig {
	if c.Radius == 0 {
		c.Radius = 1
	}
	if c.NumSplits == 0 {
		c.NumSplits = 10
	}
	if c.NumReducers == 0 {
		c.NumReducers = 5
	}
	if c.KeyMode == 0 {
		c.KeyMode = keys.VarByName
	}
	if c.Curve == "" {
		c.Curve = "zorder"
	}
	if c.OutputPath == "" {
		c.OutputPath = "/out/" + c.Op.String()
	}
	return c
}

// CombinerFor returns the value monoid for a window operator, or an error
// for holistic operators that have none. Every query value is a big-endian
// int32 lane array (one lane for simple keys, one per cell for aggregate
// and box keys), so the distributive max folds lane-wise.
func CombinerFor(op Op) (mapreduce.Monoid, error) {
	if op == Max {
		return mapreduce.MaxInt32, nil
	}
	return nil, fmt.Errorf("scihadoop: op %s is holistic: no monoid can merge partial windows, so in-node combining is unavailable", op)
}

// combineConfig resolves the config's combining request, or nil when off.
func (c QueryConfig) combineConfig() (*mapreduce.CombineConfig, error) {
	if !c.Combine {
		return nil, nil
	}
	cb, err := CombinerFor(c.Op)
	if err != nil {
		return nil, err
	}
	return &mapreduce.CombineConfig{Combiner: cb, Nodes: c.CombineNodes}, nil
}

// window enumerates the target offsets of the sliding window.
func window(rank, radius int) []grid.Coord {
	var rec func(cur grid.Coord)
	var out []grid.Coord
	rec = func(cur grid.Coord) {
		if len(cur) == rank {
			out = append(out, cur.Clone())
			return
		}
		for d := -radius; d <= radius; d++ {
			rec(append(cur, d))
		}
	}
	rec(make(grid.Coord, 0, rank))
	return out
}

// SimpleKeyJob builds the baseline job: one GridKey per (window target,
// source value) pair, hash-partitioned, with every key carrying the full
// variable reference and coordinate — the formulation whose intermediate
// volume the paper attacks.
func SimpleKeyJob(fs *hdfs.FileSystem, cfg QueryConfig) (*mapreduce.Job, *keys.Codec, error) {
	cfg = cfg.withDefaults()
	kc := &keys.Codec{Rank: cfg.DS.Extent.Rank(), Mode: cfg.KeyMode}
	splits, err := cfg.DS.Splits(fs, cfg.NumSplits)
	if err != nil {
		return nil, nil, err
	}
	offsets := window(cfg.DS.Extent.Rank(), cfg.Radius)
	cc, err := cfg.combineConfig()
	if err != nil {
		return nil, nil, err
	}
	ds := cfg.DS
	v := cfg.DS.Var
	op := cfg.Op

	job := &mapreduce.Job{
		Name:           fmt.Sprintf("%s-simple", op),
		Combine:        cc,
		FS:             fs,
		Splits:         splits,
		NumReducers:    cfg.NumReducers,
		Compare:        kc.RawCompareGrid,
		Partition:      keys.HashPartition,
		MapOutputCodec: cfg.MapOutputCodec,
		OutputPath:     cfg.OutputPath,
		Retry:          cfg.Retry,
		Faults:         cfg.Faults,
		Shuffle:        cfg.Shuffle,
		Timeout:        cfg.Timeout,
		Remote:         cfg.Remote,
		Parallelism:    cfg.Parallelism,
		Obs:            cfg.Obs,
		MapCache:       cfg.MapCache,
		CacheKey:       cfg.CacheKey,
		NewMapper: func() mapreduce.Mapper {
			return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
				box := split.Data.(grid.Box)
				slab, err := readSlab(ctx, ds, box)
				if err != nil {
					return err
				}
				var vbuf [ElemSize]byte
				out := serial.NewDataOutput(64)
				grid.ForEach(box, func(c grid.Coord) {
					binary.BigEndian.PutUint32(vbuf[:], uint32(cellValue(slab, box, c)))
					for _, off := range offsets {
						out.Reset()
						kc.EncodeGrid(out, keys.GridKey{Var: v, Coord: c.Add(off)})
						emit(out.Bytes(), vbuf[:])
					}
				})
				return nil
			})
		},
		NewReducer: func() mapreduce.Reducer {
			return mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emit) error {
				vals := make([]int32, len(values))
				for i, vb := range values {
					vals[i] = int32(binary.BigEndian.Uint32(vb))
				}
				var ob [ElemSize]byte
				binary.BigEndian.PutUint32(ob[:], uint32(op.fold(vals)))
				emit(key, ob[:])
				return nil
			})
		},
	}
	if m, err := CombinerFor(op); err == nil {
		// A distributive operator's value monoid also folds every spill.
		job.MapCombiner = m
	}
	return job, kc, nil
}
