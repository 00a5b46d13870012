// Package boxagg aggregates intermediate keys directly in their
// n-dimensional space, the road not taken in Section IV-A: "Ideally,
// aggregation would be performed directly in the keys' N-dimensional
// space. Unfortunately, this is difficult (see Fig. 5). Individual keys may
// join together in multiple ways to form aggregate keys ... We suspect (but
// have not proven) that this is an NP-hard problem."
//
// This package implements the pragmatic greedy answer: buffered cells are
// first coalesced into maximal runs along the last dimension, then adjacent
// runs with identical cross-sections are merged dimension by dimension into
// boxes — the (corner, size) aggregate keys of the paper's introduction.
// Greedy box decomposition is not optimal (that is the suspected-NP-hard
// part) but is linearithmic and usually within a small factor.
//
// The split algebra mirrors the curve-range case: boxes are split along
// reducer slab boundaries at partition time and along arrangement cuts at
// reduce time, so that any two surviving boxes of a variable are either
// identical or disjoint.
package boxagg

import (
	"sort"

	"scikey/internal/aggregate"
	"scikey/internal/grid"
	"scikey/internal/keys"
)

// Pair couples a box key with its packed values: one ElemSize-byte value
// per cell, in row-major order within the box.
type Pair struct {
	Key    keys.BoxKey
	Values []byte
}

// Config parameterizes an Aggregator.
type Config struct {
	// Domain is the box every added cell lies in (the job's output domain,
	// halo included). Cells are buffered under their row-major offset in
	// it, which orders them as grid.Coord.Compare does.
	Domain grid.Box
	// Var tags emitted keys.
	Var keys.VarRef
	// ElemSize is the fixed per-cell value size.
	ElemSize int
	// FlushCells bounds the buffer (a threshold, not a preallocation);
	// default 1 << 16.
	FlushCells int
	// Emit receives each aggregate pair.
	Emit func(Pair)
}

// Aggregator buffers cells and emits greedy n-D boxes. Build one per map
// task; not safe for concurrent use.
type Aggregator struct {
	cfg    Config
	domain aggregate.BoxMapping
	buf    aggregate.Buffer
}

// New returns an Aggregator for cfg.
func New(cfg Config) *Aggregator {
	if cfg.Emit == nil {
		panic("boxagg: Emit is required")
	}
	return &Aggregator{
		cfg:    cfg,
		domain: aggregate.BoxMapping{Domain: cfg.Domain},
		buf:    aggregate.NewBuffer(cfg.ElemSize, cfg.FlushCells),
	}
}

// AddIndex buffers one cell of the domain by its row-major offset in it
// (aggregate.BoxMapping's Index); val is copied.
func (a *Aggregator) AddIndex(idx uint64, val []byte) {
	if a.buf.Add(idx, val) {
		a.Flush()
	}
}

// Flush drains the buffer. Duplicate coordinates are layered exactly as in
// the curve aggregator: the i-th occurrence of a coordinate joins the i-th
// greedy pass.
func (a *Aggregator) Flush() { a.buf.Drain(a.emitLayer) }

// emitLayer greedily boxes a layer. Boxes are merged only across the last
// dimension, never along it, so each row of a box is one run of consecutive
// offsets: consecutive cells of the layer, found by one search.
func (a *Aggregator) emitLayer(l aggregate.Layer) {
	coords := make([]grid.Coord, l.Len())
	for i := range coords {
		coords[i] = a.domain.Coord(l.Index(i))
	}
	for _, b := range GreedyBoxes(coords) {
		vals := make([]byte, b.NumCells()*int64(a.cfg.ElemSize))
		last := b.Rank() - 1
		rows, rowLen, dst := b.Clone(), b.Size[last], vals
		rows.Size[last] = 1
		grid.ForEach(rows, func(c grid.Coord) {
			start := a.domain.Index(c)
			i := sort.Search(l.Len(), func(i int) bool { return l.Index(i) >= start })
			l.CopyValues(dst, i, i+rowLen)
			dst = dst[rowLen*a.cfg.ElemSize:]
		})
		a.cfg.Emit(Pair{Key: keys.BoxKey{Var: a.cfg.Var, Box: b}, Values: vals})
	}
}

// Close flushes remaining cells and hands the buffer's storage to the next
// aggregator, as aggregate.Aggregator's Close does. The aggregator stays
// usable.
func (a *Aggregator) Close() {
	a.Flush()
	a.buf.Release()
}

// GreedyBoxes decomposes a sorted set of distinct coordinates into disjoint
// boxes: maximal runs along the last dimension, then dimension-by-dimension
// merging of boxes with identical cross-sections. Coords must be sorted in
// row-major order with no duplicates.
func GreedyBoxes(coords []grid.Coord) []grid.Box {
	if len(coords) == 0 {
		return nil
	}
	rank := len(coords[0])
	// Runs along the last dimension.
	var boxes []grid.Box
	for i := 0; i < len(coords); {
		j := i + 1
		for j < len(coords) && runContinues(coords[j-1], coords[j], rank) {
			j++
		}
		size := make([]int, rank)
		for d := range size {
			size[d] = 1
		}
		size[rank-1] = j - i
		boxes = append(boxes, grid.Box{Corner: coords[i].Clone(), Size: size})
		i = j
	}
	// Merge along each remaining dimension, innermost outward.
	for d := rank - 2; d >= 0; d-- {
		boxes = mergeAlong(boxes, d)
	}
	return boxes
}

func runContinues(prev, cur grid.Coord, rank int) bool {
	for d := 0; d < rank-1; d++ {
		if prev[d] != cur[d] {
			return false
		}
	}
	return cur[rank-1] == prev[rank-1]+1
}

// mergeAlong merges boxes that are identical except for adjacency in
// dimension d.
func mergeAlong(boxes []grid.Box, d int) []grid.Box {
	sort.Slice(boxes, func(i, j int) bool {
		return lessIgnoringDimLast(boxes[i], boxes[j], d)
	})
	out := boxes[:0]
	for _, b := range boxes {
		if n := len(out); n > 0 && mergeable(out[n-1], b, d) {
			out[n-1].Size[d] += b.Size[d]
			continue
		}
		out = append(out, b)
	}
	return out
}

// lessIgnoringDimLast orders boxes so that candidates for merging along d
// are adjacent: compare every dimension's (corner, size) except d first,
// then d's corner.
func lessIgnoringDimLast(a, b grid.Box, d int) bool {
	for i := range a.Corner {
		if i == d {
			continue
		}
		if a.Corner[i] != b.Corner[i] {
			return a.Corner[i] < b.Corner[i]
		}
		if a.Size[i] != b.Size[i] {
			return a.Size[i] < b.Size[i]
		}
	}
	return a.Corner[d] < b.Corner[d]
}

func mergeable(a, b grid.Box, d int) bool {
	for i := range a.Corner {
		if i == d {
			continue
		}
		if a.Corner[i] != b.Corner[i] || a.Size[i] != b.Size[i] {
			return false
		}
	}
	return b.Corner[d] == a.Corner[d]+a.Size[d]
}
