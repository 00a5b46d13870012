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
	"fmt"
	"slices"
	"sort"

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

type entry struct {
	coord grid.Coord
	val   []byte
}

// Aggregator buffers cells and emits greedy n-D boxes. Build one per map
// task; not safe for concurrent use.
type Aggregator struct {
	cfg Config
	buf []entry
}

// New returns an Aggregator for cfg.
func New(cfg Config) *Aggregator {
	if cfg.ElemSize <= 0 {
		panic("boxagg: ElemSize must be positive")
	}
	if cfg.Emit == nil {
		panic("boxagg: Emit is required")
	}
	if cfg.FlushCells <= 0 {
		cfg.FlushCells = 1 << 16
	}
	return &Aggregator{cfg: cfg}
}

// Add buffers one cell; val is copied.
func (a *Aggregator) Add(c grid.Coord, val []byte) {
	if len(val) != a.cfg.ElemSize {
		panic(fmt.Sprintf("boxagg: value is %d bytes, want %d", len(val), a.cfg.ElemSize))
	}
	a.buf = append(a.buf, entry{coord: c.Clone(), val: append([]byte(nil), val...)})
	if len(a.buf) >= a.cfg.FlushCells {
		a.Flush()
	}
}

// Flush drains the buffer. Duplicate coordinates are layered exactly as in
// the curve aggregator: the i-th occurrence of a coordinate joins the i-th
// greedy pass.
func (a *Aggregator) Flush() {
	if len(a.buf) == 0 {
		return
	}
	slices.SortStableFunc(a.buf, func(x, y entry) int { return x.coord.Compare(y.coord) })
	rest := a.buf
	layer := make([]entry, 0, len(rest))
	var carry []entry
	for len(rest) > 0 {
		layer = layer[:0]
		carry = carry[:0]
		for _, e := range rest {
			if n := len(layer); n > 0 && layer[n-1].coord.Equal(e.coord) {
				carry = append(carry, e)
			} else {
				layer = append(layer, e)
			}
		}
		a.emitLayer(layer)
		rest = append(rest[:0], carry...)
	}
	a.buf = a.buf[:0]
}

// emitLayer greedily boxes a layer of strictly distinct sorted coords.
func (a *Aggregator) emitLayer(layer []entry) {
	boxes := GreedyBoxes(coordsOf(layer))
	// Index the layer's values for payload assembly.
	es := a.cfg.ElemSize
	lookup := make(map[string][]byte, len(layer))
	for _, e := range layer {
		lookup[e.coord.String()] = e.val
	}
	for _, b := range boxes {
		vals := make([]byte, 0, b.NumCells()*int64(es))
		grid.ForEach(b, func(c grid.Coord) {
			vals = append(vals, lookup[c.String()]...)
		})
		a.cfg.Emit(Pair{Key: keys.BoxKey{Var: a.cfg.Var, Box: b}, Values: vals})
	}
}

func coordsOf(layer []entry) []grid.Coord {
	out := make([]grid.Coord, len(layer))
	for i, e := range layer {
		out[i] = e.coord
	}
	return out
}

// Close flushes remaining cells.
func (a *Aggregator) Close() { a.Flush() }

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
