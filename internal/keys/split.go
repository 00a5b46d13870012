package keys

import (
	"fmt"
	"hash/fnv"
	"slices"

	"scikey/internal/sfc"
)

// AggPair couples an aggregate key with its packed value payload: one
// ElemSize-byte value per curve index in Key.Range, in curve order.
type AggPair struct {
	Key    AggKey
	Values []byte
}

// ValuesFor returns the value bytes for the sub-range [lo, hi) of p, which
// must lie inside p's range.
func (p AggPair) ValuesFor(lo, hi uint64, elemSize int) []byte {
	if lo < p.Key.Range.Lo || hi > p.Key.Range.Hi || lo > hi {
		panic(fmt.Sprintf("keys: sub-range [%d,%d) outside %v", lo, hi, p.Key.Range))
	}
	off := (lo - p.Key.Range.Lo) * uint64(elemSize)
	end := (hi - p.Key.Range.Lo) * uint64(elemSize)
	return p.Values[off:end]
}

// SplitAt cuts p into [Lo, at) and [at, Hi). at must lie strictly inside
// the range.
func (p AggPair) SplitAt(at uint64, elemSize int) (AggPair, AggPair) {
	r := p.Key.Range
	if at <= r.Lo || at >= r.Hi {
		panic(fmt.Sprintf("keys: split point %d outside (%d,%d)", at, r.Lo, r.Hi))
	}
	left := AggPair{
		Key:    AggKey{Var: p.Key.Var, Range: sfc.IndexRange{Lo: r.Lo, Hi: at}},
		Values: p.ValuesFor(r.Lo, at, elemSize),
	}
	right := AggPair{
		Key:    AggKey{Var: p.Key.Var, Range: sfc.IndexRange{Lo: at, Hi: r.Hi}},
		Values: p.ValuesFor(at, r.Hi, elemSize),
	}
	return left, right
}

// RangePartitioner assigns contiguous shards of the curve index space
// [0, Total) to reducers, so that aggregate keys usually route whole.
type RangePartitioner struct {
	// Total is the size of the curve index space (2^(rank*bits)).
	Total uint64
	// NumReducers is the shard count.
	NumReducers int
}

// PartitionOf returns the reducer owning idx.
func (rp RangePartitioner) PartitionOf(idx uint64) int {
	if idx >= rp.Total {
		idx = rp.Total - 1
	}
	// idx * R may overflow; shard by width instead.
	width := rp.Total / uint64(rp.NumReducers)
	if width == 0 {
		width = 1
	}
	p := int(idx / width)
	if p >= rp.NumReducers {
		p = rp.NumReducers - 1
	}
	return p
}

// Boundaries returns the interior shard boundaries (NumReducers-1 points);
// an aggregate key must be split wherever one of these falls strictly
// inside its range.
func (rp RangePartitioner) Boundaries() []uint64 {
	width := rp.Total / uint64(rp.NumReducers)
	if width == 0 {
		width = 1
	}
	var out []uint64
	for r := 1; r < rp.NumReducers; r++ {
		b := uint64(r) * width
		if b >= rp.Total {
			break
		}
		out = append(out, b)
	}
	return out
}

// SplitForPartition splits p at every shard boundary inside its range and
// returns the fragments with their reducer assignments, in curve order.
// This is the first of the two split cases in Section IV-B: "A mapper may
// generate an aggregate key whose simple keys do not all route to the same
// reducer."
func (rp RangePartitioner) SplitForPartition(p AggPair, elemSize int) []PartitionedPair {
	r := p.Key.Range
	first := rp.PartitionOf(r.Lo)
	last := rp.PartitionOf(r.Hi - 1)
	if first == last {
		return []PartitionedPair{{Partition: first, Pair: p}}
	}
	var out []PartitionedPair
	rest := p
	for _, b := range rp.Boundaries() {
		if b <= rest.Key.Range.Lo {
			continue
		}
		if b >= rest.Key.Range.Hi {
			break
		}
		left, right := rest.SplitAt(b, elemSize)
		out = append(out, PartitionedPair{Partition: rp.PartitionOf(left.Key.Range.Lo), Pair: left})
		rest = right
	}
	out = append(out, PartitionedPair{Partition: rp.PartitionOf(rest.Key.Range.Lo), Pair: rest})
	return out
}

// PartitionedPair is an AggPair routed to one reducer.
type PartitionedPair struct {
	Partition int
	Pair      AggPair
}

// HashPartition assigns an encoded simple key to a reducer by FNV-1a hash,
// Hadoop's default HashPartitioner behaviour for independent keys.
func HashPartition(key []byte, numReducers int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(numReducers))
}

// SplitOverlaps takes AggPairs sorted by CompareAgg and splits unequal
// overlapping keys along the overlap boundaries (Fig. 7), so that after
// splitting, any two output ranges of the same variable are either equal or
// disjoint. Equal output keys are adjacent, ready for grouped reduction.
//
// The sweep is streaming in the sense of Section IV-D: it buffers only one
// "cluster" of transitively overlapping keys at a time (bounded by the
// overlap depth, e.g. halo width in the sliding-median query), not the
// whole stream.
func SplitOverlaps(in []AggPair, elemSize int) []AggPair {
	out := make([]AggPair, 0, len(in))
	var cluster []AggPair
	var clusterMaxHi uint64
	flush := func() {
		out = append(out, splitCluster(cluster, elemSize)...)
		cluster = cluster[:0]
		clusterMaxHi = 0
	}
	for _, p := range in {
		if len(cluster) > 0 &&
			(p.Key.Var != cluster[0].Key.Var || p.Key.Range.Lo >= clusterMaxHi) {
			flush()
		}
		cluster = append(cluster, p)
		if p.Key.Range.Hi > clusterMaxHi {
			clusterMaxHi = p.Key.Range.Hi
		}
	}
	if len(cluster) > 0 {
		flush()
	}
	return out
}

// splitCluster splits every member of a transitively-overlapping cluster at
// every other member's boundaries, then returns the fragments in CompareAgg
// order. The sort is stable, so fragments with equal keys keep cluster-member
// order: that defines the order the reduce-side split on encoded keys
// (scihadoop's MergeTransform) reproduces without sorting.
func splitCluster(cluster []AggPair, elemSize int) []AggPair {
	if len(cluster) == 1 {
		return []AggPair{cluster[0]}
	}
	// Collect the distinct cut points.
	cuts := make([]uint64, 0, 2*len(cluster))
	for _, p := range cluster {
		cuts = append(cuts, p.Key.Range.Lo, p.Key.Range.Hi)
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)

	var frags []AggPair
	for _, p := range cluster {
		rest := p
		for _, c := range cuts {
			r := rest.Key.Range
			if c <= r.Lo {
				continue
			}
			if c >= r.Hi {
				break
			}
			left, right := rest.SplitAt(c, elemSize)
			frags = append(frags, left)
			rest = right
		}
		frags = append(frags, rest)
	}
	slices.SortStableFunc(frags, func(a, b AggPair) int { return CompareAgg(a.Key, b.Key) })
	return frags
}
