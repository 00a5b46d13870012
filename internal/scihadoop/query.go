package scihadoop

import (
	"encoding/binary"
	"fmt"

	"scikey/internal/codec"
	"scikey/internal/grid"
	"scikey/internal/hdfs"
	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/serial"
	"scikey/internal/shufflenet"
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
	// CombineNodes sets the combine node-group count (0 = the shuffle's
	// default node count, shufflenet.DefaultNodes, whatever the shuffle or
	// executor).
	CombineNodes int
	// Reaggregate enables reduce-side re-aggregation of output ranges
	// (AggKeyJob only): coalesce ranges fragmented by key splitting back
	// into maximal contiguous ranges — the follow-up Section IV-B
	// mentions as future work.
	Reaggregate bool
	// OutputPath is the HDFS output directory.
	OutputPath string
	// RunOptions says how the job runs (retries, faults, shuffle transport,
	// deadline, remote execution, parallelism, observability, map-output
	// cache). The builders hand it to the mapreduce.Job whole.
	mapreduce.RunOptions
}

// WithDefaults fills every unset field with its default. This is the one
// statement of the paper's job shape — a 3x3 window over 10 splits and 5
// reducers — and of the default key mode, curve and output path; the job
// builders apply it, and whoever else needs a default (the service's cache
// key and cost prior, scijob's flag defaults) reads it from here.
func (c QueryConfig) WithDefaults() QueryConfig {
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
	if c.Combine && c.CombineNodes == 0 {
		c.CombineNodes = shufflenet.DefaultNodes
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

// job starts the mapreduce.Job all three builders share: it applies the
// defaults, computes the splits, resolves the combining request, and fills
// in everything that is not a builder's own — each builder adds its name,
// comparator, partitioner, mapper, reducer and merge hooks. The defaulted
// config comes back for the builder to read its parameters from.
func (c QueryConfig) job(fs *hdfs.FileSystem) (QueryConfig, *mapreduce.Job, error) {
	c = c.WithDefaults()
	splits, err := c.DS.Splits(fs, c.NumSplits)
	if err != nil {
		return c, nil, err
	}
	job := &mapreduce.Job{
		FS:             fs,
		Splits:         splits,
		NumReducers:    c.NumReducers,
		MapOutputCodec: c.MapOutputCodec,
		OutputPath:     c.OutputPath,
		RunOptions:     c.RunOptions,
	}
	if c.Combine {
		cb, err := CombinerFor(c.Op)
		if err != nil {
			return c, nil, err
		}
		job.Combine = &mapreduce.CombineConfig{Combiner: cb, Nodes: c.CombineNodes}
	}
	return c, job, nil
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

// eachWindowIndex is the aggregating mappers' walk: box in row-major order,
// and for every cell one add per window offset, in window's order, with the
// target's index and the cell's value as it lies in slab (add copies what it
// keeps). That is the order and the indices of a walk that maps every target
// coordinate it visits, so every layer an aggregator drains is the same; but
// each cell of box expanded by radius is mapped once, not once per source
// that reaches it. The indices live in a ring of 2*radius+1 slices of the
// expanded box along dimension 0 — the rows a source row's window spans —
// and the row the window enters overwrites the one it left, so a task holds
// one band of its slab in indices, not its whole split.
func eachWindowIndex(slab []byte, box grid.Box, radius int, index func(grid.Coord) uint64, add func(idx uint64, val []byte)) {
	if box.Empty() {
		return
	}
	rank, ext, width := box.Rank(), box.Expand(radius), 2*radius+1
	// Strides of one slice: the expanded box without dimension 0.
	stride := make([]int, rank)
	sliceLen := 1
	for d := rank - 1; d >= 1; d-- {
		stride[d] = sliceLen
		sliceLen *= ext.Size[d]
	}
	// The window's offsets in window's order — dimension 0 slowest, each
	// from -radius to radius. Offset k reaches the slice ahead[k] rows below
	// the first row of the source's window, shift[k] cells from the source.
	n := 1
	for range rank {
		n *= width
	}
	ahead, shift := make([]int, n), make([]int, n)
	for k := range n {
		digits := k
		for d := rank - 1; d >= 0; d-- {
			off := digits%width - radius
			digits /= width
			if d == 0 {
				ahead[k] = off + radius
			} else {
				shift[k] += off * stride[d]
			}
		}
	}
	// Each source cell's position within its row's slice, in row-major order.
	inner := make([]int, 0, box.NumCells()/int64(box.Size[0]))
	c := box.Corner.Clone()
	for {
		p := 0
		for d := 1; d < rank; d++ {
			p += (c[d] - ext.Corner[d]) * stride[d]
		}
		inner = append(inner, p)
		if !nextInner(c, box) {
			break
		}
	}

	ring := make([]uint64, width*sliceLen)
	fill := func(r int) { // row r of ext, counted from its corner
		s := ring[r%width*sliceLen:][:sliceLen]
		copy(c, ext.Corner)
		c[0] += r
		for i := range s {
			s[i] = index(c)
			nextInner(c, ext)
		}
	}
	for r := 0; r < width-1; r++ {
		fill(r)
	}
	base := make([]int, n)
	v := 0
	for x := 0; x < box.Size[0]; x++ {
		// Source row x spans the expanded rows x .. x+2*radius; the last
		// one enters the ring now.
		fill(x + width - 1)
		for k := range base {
			base[k] = (x+ahead[k])%width*sliceLen + shift[k]
		}
		for _, p := range inner {
			val := slab[v : v+ElemSize : v+ElemSize]
			v += ElemSize
			for _, b := range base {
				add(ring[b+p], val)
			}
		}
	}
}

// nextInner steps c to the next cell of b in row-major order without
// leaving c's row (dimension 0), and reports false when it wraps back to the
// row's first cell.
func nextInner(c grid.Coord, b grid.Box) bool {
	for d := len(c) - 1; d >= 1; d-- {
		c[d]++
		if c[d] < b.Corner[d]+b.Size[d] {
			return true
		}
		c[d] = b.Corner[d]
	}
	return false
}

// SimpleKeyJob builds the baseline job: one GridKey per (window target,
// source value) pair, hash-partitioned, with every key carrying the full
// variable reference and coordinate — the formulation whose intermediate
// volume the paper attacks.
func SimpleKeyJob(fs *hdfs.FileSystem, cfg QueryConfig) (*mapreduce.Job, *keys.Codec, error) {
	cfg, job, err := cfg.job(fs)
	if err != nil {
		return nil, nil, err
	}
	kc := &keys.Codec{Rank: cfg.DS.Extent.Rank(), Mode: cfg.KeyMode}
	offsets := window(cfg.DS.Extent.Rank(), cfg.Radius)
	ds := cfg.DS
	v := cfg.DS.Var
	op := cfg.Op

	job.Name = fmt.Sprintf("%s-simple", op)
	job.Compare = kc.RawCompareGrid
	job.SortWords = kc.GridWords
	job.Partition = keys.HashPartition
	job.NewMapper = func() mapreduce.Mapper {
		return mapreduce.MapperFunc(func(ctx *mapreduce.TaskContext, split mapreduce.Split, emit mapreduce.Emit) error {
			box := split.Data.(grid.Box)
			slab, err := readSlab(ctx, ds, box)
			if err != nil {
				return err
			}
			var vbuf [ElemSize]byte
			out := serial.NewDataOutput(64)
			// One target coordinate for the whole task: EncodeGrid copies it
			// into the key, so nothing is allocated per emitted record.
			tgt := make(grid.Coord, len(box.Corner))
			grid.ForEach(box, func(c grid.Coord) {
				binary.BigEndian.PutUint32(vbuf[:], uint32(cellValue(slab, box, c)))
				for _, off := range offsets {
					for d := range tgt {
						tgt[d] = c[d] + off[d]
					}
					out.Reset()
					kc.EncodeGrid(out, keys.GridKey{Var: v, Coord: tgt})
					emit(out.Bytes(), vbuf[:])
				}
			})
			return nil
		})
	}
	job.NewReducer = func() mapreduce.Reducer {
		// One scratch slice per task: fold works in place and emit copies.
		var vals []int32
		var ob [ElemSize]byte
		return mapreduce.ReducerFunc(func(ctx *mapreduce.TaskContext, key []byte, values [][]byte, emit mapreduce.Emit) error {
			vals = vals[:0]
			for _, vb := range values {
				vals = append(vals, int32(binary.BigEndian.Uint32(vb)))
			}
			binary.BigEndian.PutUint32(ob[:], uint32(op.fold(vals)))
			emit(key, ob[:])
			return nil
		})
	}
	if m, err := CombinerFor(op); err == nil {
		// A distributive operator's value monoid also folds every spill.
		job.MapCombiner = m
	}
	return job, kc, nil
}
