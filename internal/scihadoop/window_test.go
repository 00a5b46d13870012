package scihadoop

import (
	"encoding/binary"
	"fmt"
	"testing"

	"scikey/internal/aggregate"
	"scikey/internal/grid"
)

// windowMappings are the index spaces the walk is checked in: the three
// linearizations MappingFor names, called through aggregate.IndexFunc as
// AggKeyJob calls them, and "box", boxagg's row-major offset in the output
// domain, called as BoxKeyJob calls it.
var windowMappings = []string{"zorder", "hilbert", "rowmajor", "box"}

// windowCase is one map task's walk. The extent's dimension d has side+d
// cells, so no two strides agree; the box is rows lo..lo+height-1 of it
// along dimension 0 (clamped to the extent), less inset cells at each end of
// every other dimension (at most what leaves one).
type windowCase struct {
	rank, radius, side, lo, height, inset int
	mapping                               string
}

func (c windowCase) String() string {
	return fmt.Sprintf("rank%d/r%d/side%d/rows%d+%d/inset%d/%s", c.rank, c.radius, c.side, c.lo, c.height, c.inset, c.mapping)
}

// refWindowWalk is the walk eachWindowIndex replaced, kept as its oracle:
// box in row-major order, and for every cell one call per window offset with
// the target coordinate mapped by index and the cell's value encoded afresh.
func refWindowWalk(slab []byte, box grid.Box, offsets []grid.Coord, index func(grid.Coord) uint64, add func(idx uint64, val []byte)) {
	var vbuf [ElemSize]byte
	target := make(grid.Coord, box.Rank())
	grid.ForEach(box, func(c grid.Coord) {
		binary.BigEndian.PutUint32(vbuf[:], uint32(cellValue(slab, box, c)))
		for _, off := range offsets {
			for d := range target {
				target[d] = c[d] + off[d]
			}
			add(index(target), vbuf[:])
		}
	})
}

// windowAdd is one call of a walk's add.
type windowAdd struct {
	idx uint64
	val uint32
}

// checkWindowIndex runs both walks over c's box and compares what they add,
// call for call.
func checkWindowIndex(t *testing.T, c windowCase) {
	t.Helper()
	extent := grid.Box{Corner: make(grid.Coord, c.rank), Size: make([]int, c.rank)}
	for d := range extent.Size {
		extent.Size[d] = c.side + d
	}
	box := extent.Clone()
	box.Corner[0] = max(0, min(c.lo, extent.Size[0]-1))
	box.Size[0] = max(1, min(c.height, extent.Size[0]-box.Corner[0]))
	for d := 1; d < c.rank; d++ {
		in := min(c.inset, (extent.Size[d]-1)/2)
		box.Corner[d], box.Size[d] = in, extent.Size[d]-2*in
	}
	domain := extent.Expand(c.radius)
	var ref, index func(grid.Coord) uint64
	if c.mapping == "box" {
		m := aggregate.BoxMapping{Domain: domain}
		ref, index = m.Index, m.Index
	} else {
		m, err := aggregate.MappingFor(c.mapping, domain)
		if err != nil {
			t.Fatal(err)
		}
		ref, index = m.Index, aggregate.IndexFunc(m)
	}
	slab := make([]byte, box.NumCells()*ElemSize)
	for i := range box.NumCells() {
		binary.BigEndian.PutUint32(slab[i*ElemSize:], uint32(i*2654435761))
	}
	var want, got []windowAdd
	refWindowWalk(slab, box, window(c.rank, c.radius), ref, func(idx uint64, val []byte) {
		want = append(want, windowAdd{idx, binary.BigEndian.Uint32(val)})
	})
	eachWindowIndex(slab, box, c.radius, index, func(idx uint64, val []byte) {
		got = append(got, windowAdd{idx, binary.BigEndian.Uint32(val)})
	})
	if len(got) != len(want) {
		t.Fatalf("%v (box %v): %d adds, the coordinate walk makes %d", c, box, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%v (box %v): add %d is (index %d, value %#x), the coordinate walk's (%d, %#x)",
				c, box, i, got[i].idx, got[i].val, want[i].idx, want[i].val)
		}
	}
}

// windowCases is the seed table: ranks 1–3, radius 0–2 and every mapping,
// each over a box at the extent's corner (its halo below zero), one row of
// the interior, the extent's last rows (fewer than 2r+1 when r > 0), and an
// interior box inset in every other dimension.
func windowCases() []windowCase {
	var out []windowCase
	for rank := 1; rank <= 3; rank++ {
		for radius := 0; radius <= 2; radius++ {
			for _, m := range windowMappings {
				side := 9 - 2*rank
				out = append(out,
					windowCase{rank, radius, side, 0, 3, 0, m},
					windowCase{rank, radius, side, side / 2, 1, 0, m},
					windowCase{rank, radius, side, side - 2*radius, 2 * radius, 0, m},
					windowCase{rank, radius, side, 1, side - 2, 1, m},
				)
			}
		}
	}
	return out
}

// TestWindowIndexEquivalence: eachWindowIndex adds, call for call, what the
// coordinate walk it replaced adds — the same indices with the same values
// in the same order, which is what makes every aggregator layer, pair and
// byte the same.
func TestWindowIndexEquivalence(t *testing.T) {
	for _, c := range windowCases() {
		t.Run(c.String(), func(t *testing.T) { checkWindowIndex(t, c) })
	}
}

// FuzzWindowIndexEquivalence is TestWindowIndexEquivalence over any rank
// 1–3, radius 0–2, mapping, extent and box.
func FuzzWindowIndexEquivalence(f *testing.F) {
	for i, c := range windowCases() {
		f.Add(uint8(c.rank-1), uint8(c.radius), uint8(c.side), uint8(c.lo), uint8(c.height), uint8(c.inset), uint8(i%len(windowMappings)))
	}
	f.Fuzz(func(t *testing.T, rank, radius, side, lo, height, inset, mapping uint8) {
		c := windowCase{
			rank:    1 + int(rank)%3,
			radius:  int(radius) % 3,
			lo:      int(lo) % 16,
			height:  int(height) % 16,
			inset:   int(inset) % 4,
			mapping: windowMappings[int(mapping)%len(windowMappings)],
		}
		c.side = 1 + int(side)%(24/c.rank)
		checkWindowIndex(t, c)
	})
}
