package boxagg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"scikey/internal/aggregate"
	"scikey/internal/grid"
	"scikey/internal/keys"
)

// testDomain is the output domain the aggregator tests index their cells in.
var testDomain = grid.NewBox(grid.Coord{0, 0}, []int{2, 2})

func collect(dst *[]Pair) func(Pair) {
	return func(p Pair) { *dst = append(*dst, p) }
}

func TestGreedyBoxesFullRectangle(t *testing.T) {
	// A complete rectangle of cells must collapse to exactly one box.
	box := grid.NewBox(grid.Coord{2, 3}, []int{4, 5})
	var coords []grid.Coord
	grid.ForEach(box, func(c grid.Coord) { coords = append(coords, c.Clone()) })
	boxes := GreedyBoxes(coords)
	if len(boxes) != 1 || !boxes[0].Equal(box) {
		t.Fatalf("GreedyBoxes = %v, want [%v]", boxes, box)
	}
}

func TestGreedyBoxes3D(t *testing.T) {
	box := grid.NewBox(grid.Coord{0, 0, 0}, []int{3, 4, 5})
	var coords []grid.Coord
	grid.ForEach(box, func(c grid.Coord) { coords = append(coords, c.Clone()) })
	boxes := GreedyBoxes(coords)
	if len(boxes) != 1 || !boxes[0].Equal(box) {
		t.Fatalf("3-D cube did not collapse: %v", boxes)
	}
}

func TestGreedyBoxesLShape(t *testing.T) {
	// Fig. 5's ambiguity: an L of cells decomposes into two boxes either
	// way; greedy must cover exactly, disjointly, with two boxes.
	var coords []grid.Coord
	grid.ForEach(grid.NewBox(grid.Coord{0, 0}, []int{2, 3}), func(c grid.Coord) {
		coords = append(coords, c.Clone())
	})
	grid.ForEach(grid.NewBox(grid.Coord{2, 0}, []int{1, 1}), func(c grid.Coord) {
		coords = append(coords, c.Clone())
	})
	sortCoords(coords)
	boxes := GreedyBoxes(coords)
	checkExactCover(t, boxes, coords)
	if len(boxes) != 2 {
		t.Errorf("L-shape used %d boxes, want 2: %v", len(boxes), boxes)
	}
}

func TestGreedyBoxesProperty(t *testing.T) {
	// Random cell sets: boxes must cover every cell exactly once.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		set := map[string]grid.Coord{}
		for i := 0; i < 1+rng.Intn(60); i++ {
			c := grid.Coord{rng.Intn(8), rng.Intn(8)}
			set[c.String()] = c
		}
		coords := make([]grid.Coord, 0, len(set))
		for _, c := range set {
			coords = append(coords, c)
		}
		sortCoords(coords)
		boxes := GreedyBoxes(coords)
		checkExactCover(t, boxes, coords)
	}
}

func sortCoords(cs []grid.Coord) {
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j].Compare(cs[j-1]) < 0; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

func checkExactCover(t *testing.T, boxes []grid.Box, coords []grid.Coord) {
	t.Helper()
	covered := map[string]int{}
	for _, b := range boxes {
		grid.ForEach(b, func(c grid.Coord) { covered[c.String()]++ })
	}
	if len(covered) != len(coords) {
		t.Fatalf("boxes cover %d cells, want %d (boxes %v)", len(covered), len(coords), boxes)
	}
	for _, c := range coords {
		if covered[c.String()] != 1 {
			t.Fatalf("cell %v covered %d times", c, covered[c.String()])
		}
	}
}

func TestAggregatorPayloadOrder(t *testing.T) {
	var pairs []Pair
	agg := New(Config{Domain: testDomain, Var: keys.VarRef{Name: "v"}, ElemSize: 1, Emit: collect(&pairs)})
	// 2x2 square added out of order; payload must come out row-major.
	agg.Add(grid.Coord{1, 1}, []byte{4})
	agg.Add(grid.Coord{0, 0}, []byte{1})
	agg.Add(grid.Coord{1, 0}, []byte{3})
	agg.Add(grid.Coord{0, 1}, []byte{2})
	agg.Close()
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
	if !pairs[0].Key.Box.Equal(grid.NewBox(grid.Coord{0, 0}, []int{2, 2})) {
		t.Errorf("box = %v", pairs[0].Key.Box)
	}
	if !bytes.Equal(pairs[0].Values, []byte{1, 2, 3, 4}) {
		t.Errorf("values = %v", pairs[0].Values)
	}
}

func TestAggregatorDuplicateLayers(t *testing.T) {
	var pairs []Pair
	agg := New(Config{Domain: testDomain, ElemSize: 1, Emit: collect(&pairs)})
	agg.Add(grid.Coord{0, 0}, []byte{1})
	agg.Add(grid.Coord{0, 0}, []byte{2})
	agg.Add(grid.Coord{0, 1}, []byte{9})
	agg.Close()
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	// Layer 1: the 1x2 run; layer 2: the duplicate cell.
	if pairs[0].Key.Box.NumCells() != 2 || pairs[1].Key.Box.NumCells() != 1 {
		t.Errorf("layering wrong: %v", pairs)
	}
}

// TestFlushThresholdIsNotAPreallocation: FlushCells used to size the buffer
// up front (2 MiB per map task at the default, terabytes for a spec naming a
// large one). It is a threshold; the buffer follows the cells added.
func TestFlushThresholdIsNotAPreallocation(t *testing.T) {
	for _, flush := range []int{0, math.MaxInt} {
		var pairs []Pair
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		agg := New(Config{Domain: testDomain, ElemSize: 1, FlushCells: flush, Emit: collect(&pairs)})
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Fatalf("FlushCells %d: New allocated %d bytes for a threshold", flush, got)
		}
		agg.Add(grid.Coord{0, 1}, []byte{2})
		agg.Add(grid.Coord{0, 0}, []byte{1})
		agg.Close()
		if len(pairs) != 1 || !bytes.Equal(pairs[0].Values, []byte{1, 2}) {
			t.Fatalf("FlushCells %d: pairs = %v", flush, pairs)
		}
	}
}

func TestExtractAndSubPair(t *testing.T) {
	box := grid.NewBox(grid.Coord{0, 0}, []int{2, 3})
	vals := []byte{0, 1, 2, 10, 11, 12} // row-major, elemSize 1
	p := Pair{Key: keys.BoxKey{Box: box}, Values: vals}
	sub := grid.NewBox(grid.Coord{0, 1}, []int{2, 2})
	got := Extract(p, sub, 1)
	if !bytes.Equal(got, []byte{1, 2, 11, 12}) {
		t.Errorf("Extract = %v", got)
	}
	sp := SubPair(p, sub, 1)
	if !sp.Key.Box.Equal(sub) {
		t.Errorf("SubPair box = %v", sp.Key.Box)
	}
	defer func() {
		if recover() == nil {
			t.Error("Extract outside the box must panic")
		}
	}()
	Extract(p, grid.NewBox(grid.Coord{0, 0}, []int{3, 3}), 1)
}

func TestSlabPartitioner(t *testing.T) {
	domain := grid.NewBox(grid.Coord{-1, -1}, []int{12, 12})
	sp := NewSlabPartitioner(domain, 3)
	if len(sp.Slabs) != 3 {
		t.Fatalf("slabs = %v", sp.Slabs)
	}
	// A box spanning all three slabs splits into three row bands.
	box := grid.NewBox(grid.Coord{-1, 2}, []int{12, 3})
	vals := make([]byte, box.NumCells())
	for i := range vals {
		vals[i] = byte(i)
	}
	p := Pair{Key: keys.BoxKey{Box: box}, Values: vals}
	frags := sp.SplitForPartition(p, 1)
	if len(frags) != 3 {
		t.Fatalf("fragments = %v", frags)
	}
	var cells int64
	seen := map[byte]bool{}
	for i, f := range frags {
		if f.Partition != i {
			t.Errorf("fragment %d routed to %d", i, f.Partition)
		}
		cells += f.Pair.Key.Box.NumCells()
		for _, v := range f.Pair.Values {
			if seen[v] {
				t.Fatalf("value %d duplicated", v)
			}
			seen[v] = true
		}
	}
	if cells != box.NumCells() {
		t.Errorf("fragments cover %d cells, want %d", cells, box.NumCells())
	}
	// A box inside one slab is untouched.
	inside := Pair{Key: keys.BoxKey{Box: grid.NewBox(grid.Coord{0, 0}, []int{2, 2})}, Values: make([]byte, 4)}
	if got := sp.SplitForPartition(inside, 1); len(got) != 1 {
		t.Errorf("in-slab box split: %v", got)
	}
}

func TestSplitOverlapsFig7Boxes(t *testing.T) {
	// The paper's own overlap example: (-1,-1)..(10,10) and (-1,9)..(10,20)
	// overlap in (-1,9)..(10,10).
	mk := func(lo0, lo1, hi0, hi1 int, tag byte) Pair {
		b := grid.NewBox(grid.Coord{lo0, lo1}, []int{hi0 - lo0, hi1 - lo1})
		vals := bytes.Repeat([]byte{tag}, int(b.NumCells()))
		return Pair{Key: keys.BoxKey{Box: b}, Values: vals}
	}
	a := mk(-1, -1, 10, 10, 'a')
	b := mk(-1, 9, 10, 20, 'b')
	in := []Pair{a, b}
	sortByKey(in)
	out := SplitOverlaps(in, 1)
	// The overlap region must appear exactly twice, as equal boxes.
	overlap := grid.NewBox(grid.Coord{-1, 9}, []int{11, 1})
	equalCount := 0
	var total int64
	for _, f := range out {
		total += f.Key.Box.NumCells()
		if f.Key.Box.Equal(overlap) {
			equalCount++
		}
	}
	if equalCount != 2 {
		t.Errorf("overlap region appears %d times, want 2 (out=%v)", equalCount, out)
	}
	if total != a.Key.Box.NumCells()+b.Key.Box.NumCells() {
		t.Errorf("fragments cover %d cells, want %d", total, a.Key.Box.NumCells()+b.Key.Box.NumCells())
	}
	// Equal-or-disjoint.
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			bi, bj := out[i].Key.Box, out[j].Key.Box
			if !bi.Equal(bj) && bi.Overlaps(bj) {
				t.Errorf("fragments %v and %v overlap unequally", bi, bj)
			}
		}
	}
}

func TestSplitOverlapsValuesPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		var in []Pair
		n := 1 + rng.Intn(5)
		for i := 0; i < n; i++ {
			b := grid.NewBox(grid.Coord{rng.Intn(10), rng.Intn(10)}, []int{1 + rng.Intn(6), 1 + rng.Intn(6)})
			vals := make([]byte, b.NumCells())
			for j := range vals {
				vals[j] = byte('a' + i)
			}
			in = append(in, Pair{Key: keys.BoxKey{Box: b}, Values: vals})
		}
		sortByKey(in)
		out := SplitOverlaps(in, 1)
		type cell struct {
			pos string
			tag byte
		}
		count := func(ps []Pair) map[cell]int {
			m := map[cell]int{}
			for _, p := range ps {
				i := 0
				grid.ForEach(p.Key.Box, func(c grid.Coord) {
					m[cell{c.String(), p.Values[i]}]++
					i++
				})
			}
			return m
		}
		want, got := count(in), count(out)
		if len(want) != len(got) {
			t.Fatalf("trial %d: multiset size changed", trial)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("trial %d: cell %v count %d, want %d", trial, k, got[k], v)
			}
		}
		// Equal-or-disjoint.
		for i := range out {
			for j := i + 1; j < len(out); j++ {
				bi, bj := out[i].Key.Box, out[j].Key.Box
				if !bi.Equal(bj) && bi.Overlaps(bj) {
					t.Fatalf("trial %d: %v and %v overlap unequally", trial, bi, bj)
				}
			}
		}
	}
}

func sortByKey(ps []Pair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && keys.CompareBox(ps[j].Key, ps[j-1].Key) < 0; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("no emit", func() { New(Config{ElemSize: 1}) })
	mustPanic("no elem", func() { New(Config{Emit: func(Pair) {}}) })
	agg := New(Config{Domain: testDomain, ElemSize: 2, Emit: func(Pair) {}})
	mustPanic("bad val", func() { agg.Add(grid.Coord{0, 0}, []byte{1}) })
	mustPanic("outside the domain", func() { agg.Add(grid.Coord{0, 2}, []byte{1, 2}) })
}

// boxTask is one map task's traffic in domain: cells random cells with
// random values into a fresh aggregator, which is then closed.
func boxTask(rng *rand.Rand, domain grid.Box, cells int, emit func(Pair)) {
	agg := New(Config{Domain: domain, ElemSize: 4, FlushCells: 200, Emit: emit})
	var val [4]byte
	for i := 0; i < cells; i++ {
		rng.Read(val[:])
		agg.AddIndex(uint64(rng.Int63n(domain.NumCells())), val[:])
	}
	agg.Close()
}

// keptBox is an emitted pair beside the copy of its values taken when it
// arrived.
type keptBox struct {
	pair Pair
	then []byte
}

func keepBoxes(all *[]keptBox) func(Pair) {
	return func(p Pair) { *all = append(*all, keptBox{pair: p, then: bytes.Clone(p.Values)}) }
}

func checkKeptBoxes(t *testing.T, label string, all []keptBox) {
	t.Helper()
	for i, k := range all {
		if !bytes.Equal(k.pair.Values, k.then) {
			t.Fatalf("%s: pair %d (%v) changed after it was emitted: %x, was %x", label, i, k.pair.Key.Box, k.pair.Values, k.then)
		}
	}
}

// TestEmittedValuesAreNeverReused: the pairs of task A, kept across its
// flushes, must not change while tasks B and C run on the buffer storage A
// released to the pool both packages share (aggregate's
// TestLentValuesAcrossPooledTasks asserts the pool hands it on). A box's
// values are its own block; a curve range's are lent (aggregate.Config.Emit).
func TestEmittedValuesAreNeverReused(t *testing.T) {
	domain := grid.NewBox(grid.Coord{-1, -1}, []int{20, 20})
	rng := rand.New(rand.NewSource(7))
	var a, later []keptBox
	boxTask(rng, domain, 2000, keepBoxes(&a))
	for range 2 {
		boxTask(rng, domain, 2000, keepBoxes(&later))
	}
	checkKeptBoxes(t, "task A after tasks B and C", a)
	checkKeptBoxes(t, "tasks B and C", later)
}

// TestEmittedValuesAreNeverReusedConcurrently runs four workers' map tasks
// at once, box and curve aggregators alternating, over the one pool: no box
// any of them kept may change, every value a curve aggregator lent must be
// one its task added, and under the race detector no two of them may share
// storage.
func TestEmittedValuesAreNeverReusedConcurrently(t *testing.T) {
	const workers, tasks = 4, 8
	domain := grid.NewBox(grid.Coord{-1, -1}, []int{20, 20})
	boxes := make([][]keptBox, workers)
	var wg sync.WaitGroup
	for w := range boxes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for task := range tasks {
				if (w+task)%2 == 0 {
					boxTask(rng, domain, 1000, keepBoxes(&boxes[w]))
					continue
				}
				// added counts each (index, value) the task adds; Emit takes
				// back each cell it is lent.
				added := map[[2]uint64]int{}
				agg := aggregate.New(aggregate.Config{ElemSize: 4, FlushCells: 200, Emit: func(p keys.AggPair) {
					for k := range p.Key.Range.Len() {
						added[[2]uint64{p.Key.Range.Lo + k, uint64(binary.BigEndian.Uint32(p.Values[4*k:]))}]--
					}
				}})
				var val [4]byte
				for range 1000 {
					rng.Read(val[:])
					idx := uint64(rng.Intn(400))
					added[[2]uint64{idx, uint64(binary.BigEndian.Uint32(val[:]))}]++
					agg.AddIndex(idx, val[:])
				}
				agg.Close()
				for cell, n := range added {
					if n != 0 {
						t.Errorf("worker %d task %d: cell %d value %#x added %d times more than lent", w, task, cell[0], cell[1], n)
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	for w := range boxes {
		checkKeptBoxes(t, fmt.Sprintf("worker %d", w), boxes[w])
	}
}
