// Package grid models the n-dimensional regular grids that scientific
// datasets in SciHadoop are defined over: integer coordinates, axis-aligned
// boxes described as (corner, size) pairs, traversal orders, and the split
// algebra used to partition a dataset across map tasks.
//
// The (corner, size) representation is the paper's aggregate description of
// a dense key region: "if values can be stored in order and keys are
// represented in aggregate as a (corner, size) pair, the overhead is reduced
// to a constant" (Section I).
package grid

import (
	"fmt"
	"strings"
)

// Coord is an n-dimensional integer grid coordinate. Coordinates may be
// negative: sliding-window queries produce halo keys outside the dataset
// extent (Section IV-C's (-1,-1)..(10,10) example).
type Coord []int

// Clone returns an independent copy of c.
func (c Coord) Clone() Coord {
	out := make(Coord, len(c))
	copy(out, c)
	return out
}

// Equal reports whether c and o have the same rank and components.
func (c Coord) Equal(o Coord) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Compare orders coordinates first by rank, then lexicographically
// (row-major order, first dimension most significant).
func (c Coord) Compare(o Coord) int {
	if len(c) != len(o) {
		if len(c) < len(o) {
			return -1
		}
		return 1
	}
	for i := range c {
		if c[i] != o[i] {
			if c[i] < o[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Add returns c + o elementwise. The ranks must match.
func (c Coord) Add(o Coord) Coord {
	mustSameRank(len(c), len(o))
	out := make(Coord, len(c))
	for i := range c {
		out[i] = c[i] + o[i]
	}
	return out
}

// String renders the coordinate as "(a,b,c)".
func (c Coord) String() string {
	var sb strings.Builder
	sb.WriteByte('(')
	for i, v := range c {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", v)
	}
	sb.WriteByte(')')
	return sb.String()
}

func mustSameRank(a, b int) {
	if a != b {
		panic(fmt.Sprintf("grid: rank mismatch (%d vs %d)", a, b))
	}
}

// Box is an axis-aligned region of a grid described by its low corner and
// per-dimension sizes. A Box with any zero size is empty.
type Box struct {
	Corner Coord
	Size   []int
}

// NewBox builds a box from a corner and size, cloning both.
func NewBox(corner Coord, size []int) Box {
	mustSameRank(len(corner), len(size))
	for _, s := range size {
		if s < 0 {
			panic(fmt.Sprintf("grid: negative box size %v", size))
		}
	}
	sz := make([]int, len(size))
	copy(sz, size)
	return Box{Corner: corner.Clone(), Size: sz}
}

// Rank returns the dimensionality of the box.
func (b Box) Rank() int { return len(b.Corner) }

// NumCells returns the number of grid cells covered by b.
func (b Box) NumCells() int64 {
	n := int64(1)
	for _, s := range b.Size {
		n *= int64(s)
	}
	return n
}

// Empty reports whether the box covers no cells.
func (b Box) Empty() bool {
	for _, s := range b.Size {
		if s == 0 {
			return true
		}
	}
	return len(b.Size) == 0
}

// Clone returns an independent copy of b.
func (b Box) Clone() Box {
	return Box{Corner: b.Corner.Clone(), Size: append([]int(nil), b.Size...)}
}

// Equal reports whether the boxes have identical corner and size.
func (b Box) Equal(o Box) bool {
	if !b.Corner.Equal(o.Corner) || len(b.Size) != len(o.Size) {
		return false
	}
	for i := range b.Size {
		if b.Size[i] != o.Size[i] {
			return false
		}
	}
	return true
}

// Contains reports whether c lies inside b.
func (b Box) Contains(c Coord) bool {
	if len(c) != len(b.Corner) {
		return false
	}
	for i := range c {
		if c[i] < b.Corner[i] || c[i] >= b.Corner[i]+b.Size[i] {
			return false
		}
	}
	return true
}

// ContainsBox reports whether o lies entirely inside b. Empty boxes are
// contained in everything of the same rank.
func (b Box) ContainsBox(o Box) bool {
	if b.Rank() != o.Rank() {
		return false
	}
	if o.Empty() {
		return true
	}
	for i := range o.Corner {
		if o.Corner[i] < b.Corner[i] || o.Corner[i]+o.Size[i] > b.Corner[i]+b.Size[i] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of b and o and whether it is non-empty.
func (b Box) Intersect(o Box) (Box, bool) {
	mustSameRank(b.Rank(), o.Rank())
	lo := make(Coord, b.Rank())
	size := make([]int, b.Rank())
	for i := range lo {
		l := max(b.Corner[i], o.Corner[i])
		h := min(b.Corner[i]+b.Size[i], o.Corner[i]+o.Size[i])
		if h <= l {
			return Box{}, false
		}
		lo[i] = l
		size[i] = h - l
	}
	return Box{Corner: lo, Size: size}, true
}

// Overlaps reports whether b and o share at least one cell.
func (b Box) Overlaps(o Box) bool {
	_, ok := b.Intersect(o)
	return ok
}

// Expand grows the box by pad cells on every side in every dimension.
// Sliding-window queries use this to compute the halo of a map split.
func (b Box) Expand(pad int) Box {
	out := b.Clone()
	for i := range out.Corner {
		out.Corner[i] -= pad
		out.Size[i] += 2 * pad
		if out.Size[i] < 0 {
			out.Size[i] = 0
		}
	}
	return out
}

// String renders the box as "corner+size", e.g. "(0,0)+[10,10]".
func (b Box) String() string {
	var sb strings.Builder
	sb.WriteString(b.Corner.String())
	sb.WriteByte('+')
	sb.WriteByte('[')
	for i, s := range b.Size {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", s)
	}
	sb.WriteByte(']')
	return sb.String()
}
