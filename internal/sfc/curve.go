// Package sfc implements the space-filling curves used by the key
// aggregation scheme (Section IV-A): coordinates are mapped to an index on a
// curve, and contiguous index ranges collapse into one aggregate key. The
// paper uses a Z-order curve "due to speed and ease of implementation" and
// cites the Hilbert curve (better clustering, more overhead, Moon et al.) as
// an alternative; both are provided, along with a row-major baseline and the
// clustering metric used to compare them.
package sfc

import (
	"fmt"

	"scikey/internal/grid"
)

// Curve maps coordinates in the cube [0, Side())^Rank() to indices in
// [0, Total()) and back. Implementations must be bijections. Binary curves
// (Z-order, Hilbert, row-major) have power-of-2 sides; the Peano curve has
// a power-of-3 side.
type Curve interface {
	// Name identifies the curve in reports ("zorder", "hilbert",
	// "rowmajor", "peano").
	Name() string
	// Rank is the dimensionality.
	Rank() int
	// Side is the per-dimension extent of the curve's cube.
	Side() int
	// Total is Side^Rank, the size of the index space.
	Total() uint64
	// Index returns the curve index of c. All components must lie in
	// [0, Side()).
	Index(c grid.Coord) uint64
	// Coord inverts Index.
	Coord(idx uint64) grid.Coord
}

// New constructs a binary curve by name with 2^bits cells per dimension.
// Supported names: "zorder", "hilbert", "rowmajor" (use ForSide for
// "peano", whose side is a power of 3).
func New(name string, rank, bits int) (Curve, error) {
	switch name {
	case "zorder":
		return NewZOrder(rank, bits), nil
	case "hilbert":
		return NewHilbert(rank, bits), nil
	case "rowmajor":
		return NewRowMajor(rank, bits), nil
	}
	return nil, fmt.Errorf("sfc: unknown curve %q", name)
}

// ForSide constructs the named curve with the smallest cube covering at
// least minSide cells per dimension.
func ForSide(name string, rank, minSide int) (Curve, error) {
	if minSide < 1 {
		return nil, fmt.Errorf("sfc: minSide %d < 1", minSide)
	}
	if name == "peano" {
		digits := 1
		for side := 3; side < minSide; side *= 3 {
			digits++
		}
		total := uint64(1)
		for i := 0; i < rank*digits; i++ {
			if total > (1<<63)/3 {
				return nil, fmt.Errorf("sfc: peano rank %d x %d digits overflows uint64", rank, digits)
			}
			total *= 3
		}
		return NewPeano(rank, digits), nil
	}
	bits := 1
	for side := 2; side < minSide; side *= 2 {
		bits++
	}
	return New(name, rank, bits)
}

func checkParams(rank, bits int) {
	if rank < 1 {
		panic("sfc: rank must be >= 1")
	}
	if bits < 1 || rank*bits > 64 {
		panic(fmt.Sprintf("sfc: rank %d x bits %d exceeds 64-bit index", rank, bits))
	}
}

func checkCoord(c grid.Coord, rank, bits int) {
	if len(c) != rank {
		panic(fmt.Sprintf("sfc: coordinate rank %d, curve rank %d", len(c), rank))
	}
	limit := 1 << uint(bits)
	for _, v := range c {
		if v < 0 || v >= limit {
			panic(fmt.Sprintf("sfc: coordinate %v outside [0,%d)", c, limit))
		}
	}
}

// RowMajor is the trivial curve: index = row-major linear offset. It has the
// worst clustering for multidimensional query boxes and serves as the
// baseline in curve comparisons.
type RowMajor struct {
	rank, bits int
}

// NewRowMajor returns a row-major curve over rank dimensions of bits bits.
func NewRowMajor(rank, bits int) *RowMajor {
	checkParams(rank, bits)
	return &RowMajor{rank: rank, bits: bits}
}

// Name implements Curve.
func (r *RowMajor) Name() string { return "rowmajor" }

// Rank implements Curve.
func (r *RowMajor) Rank() int { return r.rank }

// Side implements Curve.
func (r *RowMajor) Side() int { return 1 << uint(r.bits) }

// Total implements Curve.
func (r *RowMajor) Total() uint64 { return 1 << uint(r.rank*r.bits) }

// Index implements Curve.
func (r *RowMajor) Index(c grid.Coord) uint64 {
	checkCoord(c, r.rank, r.bits)
	var idx uint64
	for _, v := range c {
		idx = idx<<uint(r.bits) | uint64(v)
	}
	return idx
}

// Coord implements Curve.
func (r *RowMajor) Coord(idx uint64) grid.Coord {
	c := make(grid.Coord, r.rank)
	mask := uint64(1)<<uint(r.bits) - 1
	for i := r.rank - 1; i >= 0; i-- {
		c[i] = int(idx & mask)
		idx >>= uint(r.bits)
	}
	return c
}
