package sfc

import (
	"math/rand"
	"testing"

	"scikey/internal/grid"
)

func allCurves(rank, bits int) []Curve {
	return []Curve{NewZOrder(rank, bits), NewHilbert(rank, bits), NewRowMajor(rank, bits)}
}

func TestCurveBijection(t *testing.T) {
	for _, rank := range []int{1, 2, 3, 4} {
		for _, bits := range []int{1, 2, 3} {
			if rank*bits > 64 {
				continue
			}
			for _, c := range allCurves(rank, bits) {
				side := 1 << uint(bits)
				total := uint64(1)
				for i := 0; i < rank; i++ {
					total *= uint64(side)
				}
				seen := make(map[uint64]bool, total)
				size := make([]int, rank)
				for i := range size {
					size[i] = side
				}
				grid.ForEach(grid.NewBox(make(grid.Coord, rank), size), func(p grid.Coord) {
					idx := c.Index(p)
					if idx >= total {
						t.Fatalf("%s rank=%d bits=%d: Index(%v)=%d out of range", c.Name(), rank, bits, p, idx)
					}
					if seen[idx] {
						t.Fatalf("%s rank=%d bits=%d: duplicate index %d", c.Name(), rank, bits, idx)
					}
					seen[idx] = true
					if back := c.Coord(idx); !back.Equal(p) {
						t.Fatalf("%s rank=%d bits=%d: Coord(Index(%v)) = %v", c.Name(), rank, bits, p, back)
					}
				})
				if uint64(len(seen)) != total {
					t.Fatalf("%s rank=%d bits=%d: only %d of %d indices hit", c.Name(), rank, bits, len(seen), total)
				}
			}
		}
	}
}

func TestCurveBijectionRandomLargeBits(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	configs := []struct{ rank, bits int }{{2, 31}, {3, 21}, {2, 16}, {3, 10}, {4, 16}, {6, 10}, {1, 62}}
	for _, cfg := range configs {
		for _, c := range allCurves(cfg.rank, cfg.bits) {
			for trial := 0; trial < 200; trial++ {
				p := make(grid.Coord, cfg.rank)
				for i := range p {
					p[i] = int(rng.Int63n(int64(1) << uint(cfg.bits)))
				}
				idx := c.Index(p)
				if back := c.Coord(idx); !back.Equal(p) {
					t.Fatalf("%s %+v: Coord(Index(%v)) = %v (idx=%d)", c.Name(), cfg, p, back, idx)
				}
			}
		}
	}
}

func TestZOrderKnownValues(t *testing.T) {
	z := NewZOrder(2, 2)
	// With dim0 (row) most significant per bit group:
	// (0,0)=0 (0,1)=1 (1,0)=2 (1,1)=3 (0,2)=4 ...
	cases := []struct {
		c    grid.Coord
		want uint64
	}{
		{grid.Coord{0, 0}, 0}, {grid.Coord{0, 1}, 1}, {grid.Coord{1, 0}, 2},
		{grid.Coord{1, 1}, 3}, {grid.Coord{0, 2}, 4}, {grid.Coord{2, 0}, 8},
		{grid.Coord{3, 3}, 15},
	}
	for _, tc := range cases {
		if got := z.Index(tc.c); got != tc.want {
			t.Errorf("ZOrder.Index(%v) = %d, want %d", tc.c, got, tc.want)
		}
	}
}

func TestZOrderFastPathMatchesGeneric(t *testing.T) {
	// The rank-2 and rank-3 fast paths must agree with the generic loop,
	// exercised here via rank-4 style manual interleave of the same bits.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		bits := 1 + rng.Intn(21)
		for _, rank := range []int{2, 3} {
			z := NewZOrder(rank, bits)
			p := make(grid.Coord, rank)
			for i := range p {
				p[i] = rng.Intn(1 << uint(bits))
			}
			var want uint64
			for b := bits - 1; b >= 0; b-- {
				for d := 0; d < rank; d++ {
					want = want<<1 | uint64(p[d]>>uint(b))&1
				}
			}
			if got := z.Index(p); got != want {
				t.Fatalf("rank=%d bits=%d Index(%v) = %d, want %d", rank, bits, p, got, want)
			}
		}
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// The defining property: consecutive indices map to coordinates at
	// Manhattan distance exactly 1.
	for _, cfg := range []struct{ rank, bits int }{{2, 4}, {3, 3}} {
		h := NewHilbert(cfg.rank, cfg.bits)
		total := uint64(1) << uint(cfg.rank*cfg.bits)
		prev := h.Coord(0)
		for idx := uint64(1); idx < total; idx++ {
			cur := h.Coord(idx)
			dist := 0
			for d := range cur {
				diff := cur[d] - prev[d]
				if diff < 0 {
					diff = -diff
				}
				dist += diff
			}
			if dist != 1 {
				t.Fatalf("hilbert rank=%d bits=%d: indices %d->%d jump %v -> %v (dist %d)",
					cfg.rank, cfg.bits, idx-1, idx, prev, cur, dist)
			}
			prev = cur
		}
	}
}

func TestHilbert2DOrder2Known(t *testing.T) {
	// First-order 2-D Hilbert curve visits (0,0),(0,1),(1,1),(1,0) or a
	// reflection; check ours is a valid Hamiltonian path on the 2x2 grid
	// starting at a corner, and that index 0 maps to (0,0).
	h := NewHilbert(2, 1)
	if !h.Coord(0).Equal(grid.Coord{0, 0}) {
		t.Errorf("Coord(0) = %v, want (0,0)", h.Coord(0))
	}
}

func TestClusteringHilbertBeatsZOrder(t *testing.T) {
	// Moon et al. (cited in Section IV-A): the Hilbert curve has better
	// clustering than Z-order — fewer contiguous runs per query box on
	// average. Row-major yields exactly one run per row of the box, an
	// exact property we verify as the baseline.
	rng := rand.New(rand.NewSource(99))
	bits := 6
	curves := allCurves(2, bits)
	sums := make(map[string]int)
	for trial := 0; trial < 50; trial++ {
		side := 1 << uint(bits)
		w, hh := 2+rng.Intn(8), 2+rng.Intn(8)
		x, y := rng.Intn(side-w), rng.Intn(side-hh)
		box := grid.NewBox(grid.Coord{x, y}, []int{w, hh})
		for _, c := range curves {
			runs := ClusterCount(c, box)
			sums[c.Name()] += runs
			if c.Name() == "rowmajor" && runs != w {
				t.Errorf("rowmajor runs for %v = %d, want %d (one per row)", box, runs, w)
			}
		}
	}
	if !(sums["hilbert"] < sums["zorder"]) {
		t.Errorf("expected hilbert (%d) < zorder (%d) total runs", sums["hilbert"], sums["zorder"])
	}
}

func TestCoalesce(t *testing.T) {
	// Fig. 6: indices {5,6,7,9,10,13} coalesce to 5-7, 9-10, 13.
	got := Coalesce([]uint64{13, 5, 9, 6, 10, 7})
	want := []IndexRange{{5, 8}, {9, 11}, {13, 14}}
	if len(got) != len(want) {
		t.Fatalf("Coalesce = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("range %d = %v, want %v", i, got[i], want[i])
		}
	}
	if Coalesce(nil) != nil {
		t.Error("Coalesce(nil) should be nil")
	}
	// Duplicates merge.
	if got := Coalesce([]uint64{3, 3, 4, 4}); len(got) != 1 || got[0] != (IndexRange{3, 5}) {
		t.Errorf("Coalesce with duplicates = %v", got)
	}
}

func TestIndexRange(t *testing.T) {
	r := IndexRange{5, 8}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3 (Hi is exclusive)", r.Len())
	}
}

func TestRangesCoverBoxExactly(t *testing.T) {
	box := grid.NewBox(grid.Coord{3, 5}, []int{6, 4})
	for _, c := range allCurves(2, 5) {
		ranges := Ranges(c, box)
		var covered uint64
		for i, r := range ranges {
			covered += r.Len()
			if i > 0 && ranges[i-1].Hi >= r.Lo {
				t.Errorf("%s: ranges not sorted/disjoint: %v then %v", c.Name(), ranges[i-1], r)
			}
			for idx := r.Lo; idx < r.Hi; idx++ {
				if !box.Contains(c.Coord(idx)) {
					t.Fatalf("%s: index %d maps outside the box", c.Name(), idx)
				}
			}
		}
		if covered != uint64(box.NumCells()) {
			t.Errorf("%s: ranges cover %d cells, want %d", c.Name(), covered, box.NumCells())
		}
	}
	if Ranges(NewZOrder(2, 5), grid.NewBox(grid.Coord{0, 0}, []int{0, 3})) != nil {
		t.Error("Ranges of empty box should be nil")
	}
}

func TestNewByName(t *testing.T) {
	for _, name := range []string{"zorder", "hilbert", "rowmajor"} {
		c, err := New(name, 2, 8)
		if err != nil || c.Name() != name {
			t.Errorf("New(%q) = %v, %v", name, c, err)
		}
	}
	if _, err := New("peano", 2, 8); err == nil {
		t.Error("unknown curve must error")
	}
}

func TestParamValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("rank 0", func() { NewZOrder(0, 4) })
	mustPanic("overflow", func() { NewZOrder(3, 22) })
	mustPanic("neg coord", func() { NewZOrder(2, 4).Index(grid.Coord{-1, 0}) })
	mustPanic("big coord", func() { NewHilbert(2, 4).Index(grid.Coord{16, 0}) })
	mustPanic("rank mismatch", func() { NewRowMajor(2, 4).Index(grid.Coord{1}) })
}

func BenchmarkIndex(b *testing.B) {
	curves := []Curve{NewZOrder(2, 16), NewHilbert(2, 16), NewPeano(2, 10), NewRowMajor(2, 16)}
	for _, c := range curves {
		b.Run(c.Name(), func(b *testing.B) {
			p := grid.Coord{12345 % c.Side(), 54321 % c.Side()}
			var sink uint64
			for i := 0; i < b.N; i++ {
				p[0] = (p[0] + 1) % c.Side()
				sink += c.Index(p)
			}
			_ = sink
		})
	}
}
