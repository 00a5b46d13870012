package keys

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scikey/internal/sfc"
)

// mkPair builds an AggPair over [lo,hi) whose value payload encodes each
// index as a single tag byte, so value routing can be verified exactly.
func mkPair(lo, hi uint64, tag byte) AggPair {
	vals := make([]byte, hi-lo)
	for i := range vals {
		vals[i] = tag
	}
	return AggPair{Key: AggKey{Range: sfc.IndexRange{Lo: lo, Hi: hi}}, Values: vals}
}

func TestSplitAt(t *testing.T) {
	p := AggPair{
		Key:    AggKey{Range: sfc.IndexRange{Lo: 10, Hi: 14}},
		Values: []byte{1, 1, 2, 2, 3, 3, 4, 4}, // elemSize 2
	}
	l, r := p.SplitAt(12, 2)
	if l.Key.Range != (sfc.IndexRange{Lo: 10, Hi: 12}) || r.Key.Range != (sfc.IndexRange{Lo: 12, Hi: 14}) {
		t.Fatalf("ranges: %v / %v", l.Key.Range, r.Key.Range)
	}
	if !bytes.Equal(l.Values, []byte{1, 1, 2, 2}) || !bytes.Equal(r.Values, []byte{3, 3, 4, 4}) {
		t.Errorf("values: %v / %v", l.Values, r.Values)
	}
	defer func() {
		if recover() == nil {
			t.Error("SplitAt at boundary must panic")
		}
	}()
	p.SplitAt(10, 2)
}

func TestRangePartitioner(t *testing.T) {
	rp := RangePartitioner{Total: 100, NumReducers: 4}
	if rp.PartitionOf(0) != 0 || rp.PartitionOf(24) != 0 || rp.PartitionOf(25) != 1 ||
		rp.PartitionOf(99) != 3 || rp.PartitionOf(1000) != 3 {
		t.Error("PartitionOf boundaries wrong")
	}
	b := rp.Boundaries()
	if len(b) != 3 || b[0] != 25 || b[1] != 50 || b[2] != 75 {
		t.Errorf("Boundaries = %v", b)
	}
	// Partition assignment must be monotone in the index.
	last := 0
	for i := uint64(0); i < 100; i++ {
		p := rp.PartitionOf(i)
		if p < last || p >= 4 {
			t.Fatalf("non-monotone partition %d at %d", p, i)
		}
		last = p
	}
}

func TestSplitForPartition(t *testing.T) {
	rp := RangePartitioner{Total: 100, NumReducers: 4}
	// Range [20,60) spans shards 0,1,2 → must split at 25 and 50.
	p := mkPair(20, 60, 7)
	frags := rp.SplitForPartition(p, 1)
	if len(frags) != 3 {
		t.Fatalf("got %d fragments, want 3: %v", len(frags), frags)
	}
	wantRanges := []sfc.IndexRange{{Lo: 20, Hi: 25}, {Lo: 25, Hi: 50}, {Lo: 50, Hi: 60}}
	wantParts := []int{0, 1, 2}
	var totalVals int
	for i, f := range frags {
		if f.Pair.Key.Range != wantRanges[i] || f.Partition != wantParts[i] {
			t.Errorf("fragment %d = %v part %d, want %v part %d",
				i, f.Pair.Key.Range, f.Partition, wantRanges[i], wantParts[i])
		}
		totalVals += len(f.Pair.Values)
		for _, v := range f.Pair.Values {
			if v != 7 {
				t.Error("value bytes corrupted")
			}
		}
	}
	if totalVals != 40 {
		t.Errorf("values total %d, want 40", totalVals)
	}
	// A range inside one shard is not split.
	whole := rp.SplitForPartition(mkPair(30, 40, 1), 1)
	if len(whole) != 1 || whole[0].Partition != 1 {
		t.Errorf("in-shard pair split: %v", whole)
	}
}

func TestSplitOverlapsFig7(t *testing.T) {
	// Fig. 7: two unequal overlapping ranges split on the overlap
	// boundaries so the shared sub-range appears as two equal keys.
	a := mkPair(0, 10, 'a')
	b := mkPair(6, 14, 'b')
	out := SplitOverlaps([]AggPair{a, b}, 1)
	want := []struct {
		r   sfc.IndexRange
		tag byte
	}{
		{sfc.IndexRange{Lo: 0, Hi: 6}, 'a'},
		{sfc.IndexRange{Lo: 6, Hi: 10}, 'a'},
		{sfc.IndexRange{Lo: 6, Hi: 10}, 'b'},
		{sfc.IndexRange{Lo: 10, Hi: 14}, 'b'},
	}
	if len(out) != len(want) {
		t.Fatalf("got %d fragments: %v", len(out), out)
	}
	for i, w := range want {
		if out[i].Key.Range != w.r {
			t.Errorf("fragment %d = %v, want %v", i, out[i].Key.Range, w.r)
		}
		for _, v := range out[i].Values {
			if v != w.tag {
				t.Errorf("fragment %d carries value %q, want %q", i, v, w.tag)
			}
		}
	}
}

func TestSplitOverlapsDisjointPassThrough(t *testing.T) {
	in := []AggPair{mkPair(0, 5, 1), mkPair(5, 9, 2), mkPair(20, 30, 3)}
	out := SplitOverlaps(in, 1)
	if len(out) != 3 {
		t.Fatalf("disjoint input must pass through, got %v", out)
	}
	for i := range in {
		if out[i].Key.Range != in[i].Key.Range {
			t.Errorf("fragment %d = %v", i, out[i].Key.Range)
		}
	}
}

func TestSplitOverlapsVarBoundary(t *testing.T) {
	// Overlapping ranges of different variables must not be split.
	a := AggPair{Key: AggKey{Var: VarRef{Index: 0}, Range: sfc.IndexRange{Lo: 0, Hi: 10}}, Values: make([]byte, 10)}
	b := AggPair{Key: AggKey{Var: VarRef{Index: 1}, Range: sfc.IndexRange{Lo: 5, Hi: 15}}, Values: make([]byte, 10)}
	out := SplitOverlaps([]AggPair{a, b}, 1)
	if len(out) != 2 {
		t.Fatalf("cross-variable split happened: %v", out)
	}
}

func TestSplitOverlapsProperty(t *testing.T) {
	// Random overlapping inputs: after splitting, (1) every pair of output
	// ranges is equal or disjoint, (2) outputs are sorted with equal keys
	// adjacent, (3) each input's index->value mapping is preserved.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		in := make([]AggPair, 0, n)
		for i := 0; i < n; i++ {
			lo := uint64(rng.Intn(40))
			hi := lo + 1 + uint64(rng.Intn(15))
			in = append(in, mkPair(lo, hi, byte('a'+i)))
		}
		sortAgg(in)
		out := SplitOverlaps(in, 1)
		// (1) equal-or-disjoint.
		for i := range out {
			for j := i + 1; j < len(out); j++ {
				ri, rj := out[i].Key.Range, out[j].Key.Range
				if ri != rj && ri.Lo < rj.Hi && rj.Lo < ri.Hi {
					t.Fatalf("trial %d: ranges %v and %v overlap unequally", trial, ri, rj)
				}
			}
		}
		// (2) sorted.
		for i := 1; i < len(out); i++ {
			if CompareAgg(out[i-1].Key, out[i].Key) > 0 {
				t.Fatalf("trial %d: output not sorted at %d", trial, i)
			}
		}
		// (3) value preservation: count (index, tag) pairs on both sides.
		type cell struct {
			idx uint64
			tag byte
		}
		count := func(ps []AggPair) map[cell]int {
			m := make(map[cell]int)
			for _, p := range ps {
				for k := uint64(0); k < p.Key.Range.Len(); k++ {
					m[cell{p.Key.Range.Lo + k, p.Values[k]}]++
				}
			}
			return m
		}
		want, got := count(in), count(out)
		if len(want) != len(got) {
			t.Fatalf("trial %d: cell multiset size changed", trial)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("trial %d: cell %v count %d, want %d", trial, k, got[k], v)
			}
		}
	}
}

// TestSplitOverlapsEqualKeysKeepMemberOrder: fragments with equal keys come
// out in the order of the members they were cut from — the order the
// reduce-side split on encoded keys reproduces byte for byte.
func TestSplitOverlapsEqualKeysKeepMemberOrder(t *testing.T) {
	in := []AggPair{mkPair(0, 8, 'a'), mkPair(0, 8, 'b'), mkPair(2, 6, 'c'), mkPair(2, 6, 'd'), mkPair(4, 10, 'e')}
	var got []string
	for _, p := range SplitOverlaps(in, 1) {
		got = append(got, fmt.Sprintf("[%d,%d)%c", p.Key.Range.Lo, p.Key.Range.Hi, p.Values[0]))
	}
	want := []string{
		"[0,2)a", "[0,2)b",
		"[2,4)a", "[2,4)b", "[2,4)c", "[2,4)d",
		"[4,6)a", "[4,6)b", "[4,6)c", "[4,6)d", "[4,6)e",
		"[6,8)a", "[6,8)b", "[6,8)e",
		"[8,10)e",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("fragments %v\nwant      %v", got, want)
	}
}

func sortAgg(ps []AggPair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && CompareAgg(ps[j].Key, ps[j-1].Key) < 0; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func TestHashPartition(t *testing.T) {
	counts := make([]int, 5)
	for i := 0; i < 1000; i++ {
		k := []byte{byte(i), byte(i >> 8), 0x55}
		p := HashPartition(k, 5)
		if p < 0 || p >= 5 {
			t.Fatalf("partition %d out of range", p)
		}
		counts[p]++
	}
	for r, c := range counts {
		if c < 100 {
			t.Errorf("reducer %d got only %d of 1000 keys (poor dispersion)", r, c)
		}
	}
	// Deterministic.
	if HashPartition([]byte("abc"), 7) != HashPartition([]byte("abc"), 7) {
		t.Error("HashPartition must be deterministic")
	}
}

func BenchmarkSplitOverlaps(b *testing.B) {
	// A realistic halo cluster: 32 ranges with pairwise overlaps.
	var in []AggPair
	for i := 0; i < 32; i++ {
		lo := uint64(i * 40)
		in = append(in, mkPair(lo, lo+60, byte(i)))
	}
	sortAgg(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SplitOverlaps(in, 1)
	}
}

func BenchmarkSplitForPartition(b *testing.B) {
	rp := RangePartitioner{Total: 1 << 20, NumReducers: 16}
	p := mkPair(1000, 200000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rp.SplitForPartition(p, 1)
	}
}
