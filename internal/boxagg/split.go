package boxagg

import (
	"fmt"
	"sort"

	"scikey/internal/grid"
	"scikey/internal/keys"
)

// Extract returns the value payload of sub, which must lie inside p's box,
// gathered into sub's own row-major order.
func Extract(p Pair, sub grid.Box, elemSize int) []byte {
	if !p.Key.Box.ContainsBox(sub) {
		panic(fmt.Sprintf("boxagg: %v not inside %v", sub, p.Key.Box))
	}
	out := make([]byte, 0, sub.NumCells()*int64(elemSize))
	grid.ForEach(sub, func(c grid.Coord) {
		off := grid.RowMajorIndex(p.Key.Box, c) * int64(elemSize)
		out = append(out, p.Values[off:off+int64(elemSize)]...)
	})
	return out
}

// SubPair returns the fragment of p covering sub.
func SubPair(p Pair, sub grid.Box, elemSize int) Pair {
	return Pair{
		Key:    keys.BoxKey{Var: p.Key.Var, Box: sub.Clone()},
		Values: Extract(p, sub, elemSize),
	}
}

// SlabPartitioner routes box keys to reducers that own contiguous slabs of
// the output domain along dimension 0 (the n-D analogue of the curve range
// partitioner).
type SlabPartitioner struct {
	Slabs []grid.Box
}

// NewSlabPartitioner slices domain into numReducers dim-0 slabs.
func NewSlabPartitioner(domain grid.Box, numReducers int) SlabPartitioner {
	return SlabPartitioner{Slabs: grid.Partition(domain, numReducers)}
}

// SplitForPartition intersects p with each reducer slab (Section IV-B case
// one, box flavor). Cells outside every slab are attached to the nearest
// slab's fragment only when they fall before the first or after the last
// boundary; interior cells always land in a slab.
func (sp SlabPartitioner) SplitForPartition(p Pair, elemSize int) []RoutedPair {
	var out []RoutedPair
	box := p.Key.Box
	for i, slab := range sp.Slabs {
		lo := slab.Corner[0]
		hi := slab.Corner[0] + slab.Size[0]
		if i == 0 {
			lo = box.Corner[0] // catch halo cells below the domain
		}
		if i == len(sp.Slabs)-1 {
			hi = box.Corner[0] + box.Size[0] // and above it
		}
		if hi <= lo {
			continue
		}
		// Clip only along dim 0: a slab owns every cell whose first
		// coordinate falls in its band, including halo columns.
		clip := box.Clone()
		if clip.Corner[0] < lo {
			clip.Size[0] -= lo - clip.Corner[0]
			clip.Corner[0] = lo
		}
		if clip.Corner[0]+clip.Size[0] > hi {
			clip.Size[0] = hi - clip.Corner[0]
		}
		if clip.Size[0] <= 0 || clip.Empty() {
			continue
		}
		out = append(out, RoutedPair{Partition: i, Pair: SubPair(p, clip, elemSize)})
	}
	return out
}

// RoutedPair is a Pair assigned to one reducer.
type RoutedPair struct {
	Partition int
	Pair      Pair
}

// SplitOverlaps takes Pairs sorted by keys.CompareBox and splits unequal
// overlapping boxes along arrangement cuts (the n-D generalization of
// Fig. 7): within each cluster of transitively dim-0-overlapping boxes,
// every member is fragmented at every other member's boundaries in every
// dimension, so all surviving boxes of a variable are equal or disjoint.
func SplitOverlaps(in []Pair, elemSize int) []Pair {
	out := make([]Pair, 0, len(in))
	var cluster []Pair
	maxHi := 0
	flush := func() {
		out = append(out, splitCluster(cluster, elemSize)...)
		cluster = cluster[:0]
	}
	for _, p := range in {
		if len(cluster) > 0 &&
			(p.Key.Var != cluster[0].Key.Var || p.Key.Box.Corner[0] >= maxHi) {
			flush()
		}
		if len(cluster) == 0 {
			maxHi = p.Key.Box.Corner[0] + p.Key.Box.Size[0]
		} else if hi := p.Key.Box.Corner[0] + p.Key.Box.Size[0]; hi > maxHi {
			maxHi = hi
		}
		cluster = append(cluster, p)
	}
	if len(cluster) > 0 {
		flush()
	}
	return out
}

func splitCluster(cluster []Pair, elemSize int) []Pair {
	if len(cluster) == 1 {
		return []Pair{cluster[0]}
	}
	// Check whether any pair actually overlaps; dim-0 clustering is
	// conservative.
	overlapping := false
	for i := 0; i < len(cluster) && !overlapping; i++ {
		for j := i + 1; j < len(cluster); j++ {
			if cluster[i].Key.Box.Overlaps(cluster[j].Key.Box) {
				overlapping = true
				break
			}
		}
	}
	if !overlapping {
		return cluster
	}
	rank := cluster[0].Key.Box.Rank()
	// Arrangement cuts per dimension.
	cuts := make([][]int, rank)
	for d := 0; d < rank; d++ {
		set := map[int]bool{}
		for _, p := range cluster {
			set[p.Key.Box.Corner[d]] = true
			set[p.Key.Box.Corner[d]+p.Key.Box.Size[d]] = true
		}
		for v := range set {
			cuts[d] = append(cuts[d], v)
		}
		sort.Ints(cuts[d])
	}
	var frags []Pair
	for _, p := range cluster {
		frags = append(frags, fragment(p, cuts, elemSize)...)
	}
	sort.SliceStable(frags, func(i, j int) bool {
		return keys.CompareBox(frags[i].Key, frags[j].Key) < 0
	})
	return frags
}

// fragment cuts p's box into the arrangement cells it covers.
func fragment(p Pair, cuts [][]int, elemSize int) []Pair {
	box := p.Key.Box
	// Per-dimension interval lists clipped to the box.
	type iv struct{ lo, hi int }
	ivs := make([][]iv, box.Rank())
	for d := range ivs {
		lo := box.Corner[d]
		hi := lo + box.Size[d]
		prev := lo
		for _, c := range cuts[d] {
			if c <= prev {
				continue
			}
			if c >= hi {
				break
			}
			ivs[d] = append(ivs[d], iv{prev, c})
			prev = c
		}
		ivs[d] = append(ivs[d], iv{prev, hi})
	}
	var out []Pair
	idx := make([]int, box.Rank())
	for {
		sub := grid.Box{Corner: make(grid.Coord, box.Rank()), Size: make([]int, box.Rank())}
		for d, i := range idx {
			sub.Corner[d] = ivs[d][i].lo
			sub.Size[d] = ivs[d][i].hi - ivs[d][i].lo
		}
		if sub.Equal(box) {
			out = append(out, p) // no cuts inside: keep the original
		} else {
			out = append(out, SubPair(p, sub, elemSize))
		}
		d := box.Rank() - 1
		for ; d >= 0; d-- {
			idx[d]++
			if idx[d] < len(ivs[d]) {
				break
			}
			idx[d] = 0
		}
		if d < 0 {
			return out
		}
	}
}
