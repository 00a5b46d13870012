package sfc

import (
	"sort"

	"scikey/internal/grid"
)

// IndexRange is a half-open range [Lo, Hi) of curve indices. Contiguous
// cells along the curve collapse into one range — this is exactly the
// aggregate-key payload of Section IV-A (Fig. 6: "5-6, 7, 9-10, 13").
type IndexRange struct {
	Lo, Hi uint64
}

// Len returns the number of indices in the range.
func (r IndexRange) Len() uint64 { return r.Hi - r.Lo }

// Ranges maps every cell of box onto the curve and coalesces the resulting
// indices into sorted disjoint contiguous ranges. The number of ranges is
// the clustering number of Moon et al.: fewer ranges means fewer aggregate
// keys for the same data.
func Ranges(c Curve, box grid.Box) []IndexRange {
	if box.Empty() {
		return nil
	}
	idxs := make([]uint64, 0, box.NumCells())
	grid.ForEach(box, func(p grid.Coord) {
		idxs = append(idxs, c.Index(p))
	})
	return Coalesce(idxs)
}

// Coalesce sorts idxs and merges consecutive runs into ranges. Duplicate
// indices are tolerated and merged.
func Coalesce(idxs []uint64) []IndexRange {
	if len(idxs) == 0 {
		return nil
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	out := []IndexRange{{Lo: idxs[0], Hi: idxs[0] + 1}}
	for _, v := range idxs[1:] {
		last := &out[len(out)-1]
		switch {
		case v < last.Hi:
			// duplicate
		case v == last.Hi:
			last.Hi++
		default:
			out = append(out, IndexRange{Lo: v, Hi: v + 1})
		}
	}
	return out
}

// ClusterCount returns the number of contiguous curve runs covering box.
func ClusterCount(c Curve, box grid.Box) int { return len(Ranges(c, box)) }
