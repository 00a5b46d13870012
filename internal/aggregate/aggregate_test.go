package aggregate

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/keys"
	"scikey/internal/sfc"
)

// collectPairs keeps every emitted pair in *dst, its values copied: Emit
// lends them only for the call.
func collectPairs(dst *[]keys.AggPair) func(keys.AggPair) {
	return func(p keys.AggPair) {
		p.Values = bytes.Clone(p.Values)
		*dst = append(*dst, p)
	}
}

func mustMapping(t *testing.T, curve string, domain grid.Box) Mapping {
	t.Helper()
	m, err := MappingFor(curve, domain)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMappingBiasesNegativeCoords(t *testing.T) {
	// Sliding-window halos produce coordinates like (-1,-1); the mapping
	// must keep them in the curve's non-negative cube.
	domain := grid.NewBox(grid.Coord{-1, -1}, []int{12, 12})
	m := mustMapping(t, "zorder", domain)
	grid.ForEach(domain, func(c grid.Coord) {
		idx := m.Index(c)
		if back := m.Coord(idx); !back.Equal(c) {
			t.Fatalf("Coord(Index(%v)) = %v", c, back)
		}
	})
	if m.Total() < uint64(domain.NumCells()) {
		t.Errorf("index space %d smaller than domain %d", m.Total(), domain.NumCells())
	}
}

func TestMappingTooBig(t *testing.T) {
	domain := grid.NewBox(make(grid.Coord, 8), []int{1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20})
	if _, err := MappingFor("zorder", domain); err == nil {
		t.Error("oversized domain must fail")
	}
	if _, err := MappingFor("sierpinski", grid.NewBox(grid.Coord{0}, []int{4})); err == nil {
		t.Error("unknown curve must fail")
	}
}

func TestFig6Coalescing(t *testing.T) {
	// Fig. 6: cells numbered {5, 6, 7, 9, 10, 13} on the curve collapse
	// into ranges 5-7, 9-10, 13.
	domain := grid.NewBox(grid.Coord{0}, []int{16})
	m := mustMapping(t, "rowmajor", domain)
	var pairs []keys.AggPair
	agg := New(Config{Mapping: m, ElemSize: 1, Emit: collectPairs(&pairs)})
	for _, idx := range []int{13, 5, 9, 6, 10, 7} {
		agg.Add(grid.Coord{idx}, []byte{byte(idx)})
	}
	agg.Close()
	want := []sfc.IndexRange{{Lo: 5, Hi: 8}, {Lo: 9, Hi: 11}, {Lo: 13, Hi: 14}}
	if len(pairs) != len(want) {
		t.Fatalf("got %d pairs: %v", len(pairs), pairs)
	}
	for i, w := range want {
		if pairs[i].Key.Range != w {
			t.Errorf("pair %d range = %v, want %v", i, pairs[i].Key.Range, w)
		}
	}
	// Values ride along in curve order.
	if !bytes.Equal(pairs[0].Values, []byte{5, 6, 7}) {
		t.Errorf("pair 0 values = %v", pairs[0].Values)
	}
}

func TestIdealCaseSinglePair(t *testing.T) {
	// A full row-major walk of the whole domain collapses to ONE aggregate
	// key — the constant-size (corner, size) description of Section I.
	domain := grid.NewBox(grid.Coord{0, 0}, []int{16, 16})
	m := mustMapping(t, "rowmajor", domain)
	var pairs []keys.AggPair
	agg := New(Config{Mapping: m, ElemSize: 4, Emit: collectPairs(&pairs)})
	val := []byte{0, 0, 0, 7}
	grid.ForEach(domain, func(c grid.Coord) { agg.Add(c, val) })
	agg.Close()
	if len(pairs) != 1 {
		t.Fatalf("got %d pairs, want 1", len(pairs))
	}
	if pairs[0].Key.Range.Len() != 256 || len(pairs[0].Values) != 256*4 {
		t.Errorf("pair = %v with %d value bytes", pairs[0].Key, len(pairs[0].Values))
	}
	s := agg.Stats()
	if s.CellsIn != 256 || s.PairsOut != 1 || s.Flushes != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDuplicateIndicesLayered(t *testing.T) {
	// The same cell added three times must yield three layered pairs, each
	// carrying one value per index.
	domain := grid.NewBox(grid.Coord{0}, []int{8})
	m := mustMapping(t, "rowmajor", domain)
	var pairs []keys.AggPair
	agg := New(Config{Mapping: m, ElemSize: 1, Emit: collectPairs(&pairs)})
	agg.Add(grid.Coord{3}, []byte{1})
	agg.Add(grid.Coord{3}, []byte{2})
	agg.Add(grid.Coord{3}, []byte{3})
	agg.Add(grid.Coord{4}, []byte{9})
	agg.Close()
	if len(pairs) != 3 {
		t.Fatalf("got %d pairs: %v", len(pairs), pairs)
	}
	// Layer 1 contains indices 3-5 (3 and 4 contiguous); layers 2-3 only
	// index 3.
	if pairs[0].Key.Range != (sfc.IndexRange{Lo: 3, Hi: 5}) {
		t.Errorf("layer 1 = %v", pairs[0].Key.Range)
	}
	if !bytes.Equal(pairs[0].Values, []byte{1, 9}) {
		t.Errorf("layer 1 values = %v", pairs[0].Values)
	}
	for i, wantVal := range []byte{2, 3} {
		p := pairs[i+1]
		if p.Key.Range != (sfc.IndexRange{Lo: 3, Hi: 4}) || !bytes.Equal(p.Values, []byte{wantVal}) {
			t.Errorf("layer %d = %v values %v", i+2, p.Key.Range, p.Values)
		}
	}
}

func TestFlushThresholdSplitsRuns(t *testing.T) {
	// "keys generated after a flush cannot be aggregated with keys
	// generated before a flush" — a small threshold yields more pairs.
	domain := grid.NewBox(grid.Coord{0}, []int{1024})
	m := mustMapping(t, "rowmajor", domain)
	run := func(threshold int) int64 {
		var pairs []keys.AggPair
		agg := New(Config{Mapping: m, ElemSize: 1, FlushCells: threshold, Emit: collectPairs(&pairs)})
		for i := 0; i < 1024; i++ {
			agg.Add(grid.Coord{i}, []byte{0})
		}
		agg.Close()
		return agg.Stats().PairsOut
	}
	big, small := run(1<<16), run(64)
	if big != 1 {
		t.Errorf("unbounded buffer produced %d pairs, want 1", big)
	}
	if small != 16 {
		t.Errorf("64-cell buffer produced %d pairs, want 16", small)
	}
}

func TestZOrderAggregationOfBlock(t *testing.T) {
	// A 4x4-aligned square is exactly one Z-order range; an unaligned one
	// fragments. Both must cover every cell exactly once.
	domain := grid.NewBox(grid.Coord{0, 0}, []int{16, 16})
	m := mustMapping(t, "zorder", domain)
	for _, corner := range []grid.Coord{{4, 4}, {3, 5}} {
		box := grid.NewBox(corner, []int{4, 4})
		var pairs []keys.AggPair
		agg := New(Config{Mapping: m, ElemSize: 1, Emit: collectPairs(&pairs)})
		grid.ForEach(box, func(c grid.Coord) { agg.Add(c, []byte{1}) })
		agg.Close()
		var cells uint64
		for _, p := range pairs {
			cells += p.Key.Range.Len()
			for idx := p.Key.Range.Lo; idx < p.Key.Range.Hi; idx++ {
				if !box.Contains(m.Coord(idx)) {
					t.Fatalf("corner %v: index %d outside box", corner, idx)
				}
			}
		}
		if cells != 16 {
			t.Errorf("corner %v: pairs cover %d cells", corner, cells)
		}
		if corner[0] == 4 && len(pairs) != 1 {
			t.Errorf("aligned square should be 1 range, got %d", len(pairs))
		}
		if corner[0] == 3 && len(pairs) <= 1 {
			t.Error("unaligned square should fragment")
		}
	}
}

func TestAlignmentExpandsRanges(t *testing.T) {
	domain := grid.NewBox(grid.Coord{0}, []int{64})
	m := mustMapping(t, "rowmajor", domain)
	var pairs []keys.AggPair
	agg := New(Config{Mapping: m, ElemSize: 2, Align: 8, Emit: collectPairs(&pairs)})
	agg.Add(grid.Coord{5}, []byte{0xaa, 0xbb})
	agg.Add(grid.Coord{6}, []byte{0xcc, 0xdd})
	agg.Close()
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v", pairs)
	}
	p := pairs[0]
	if p.Key.Range != (sfc.IndexRange{Lo: 0, Hi: 8}) {
		t.Errorf("aligned range = %v", p.Key.Range)
	}
	if len(p.Values) != 16 {
		t.Fatalf("padded values = %d bytes", len(p.Values))
	}
	if !bytes.Equal(p.Values[10:14], []byte{0xaa, 0xbb, 0xcc, 0xdd}) {
		t.Errorf("real values misplaced: %v", p.Values)
	}
	if agg.Stats().PadCells != 6 {
		t.Errorf("pad cells = %d, want 6", agg.Stats().PadCells)
	}
}

func TestRandomizedValuePreservation(t *testing.T) {
	// Property: every (coord, value) added appears in exactly one emitted
	// pair at the right offset.
	rng := rand.New(rand.NewSource(8))
	domain := grid.NewBox(grid.Coord{0, 0}, []int{32, 32})
	m := mustMapping(t, "hilbert", domain)
	for trial := 0; trial < 20; trial++ {
		var pairs []keys.AggPair
		agg := New(Config{Mapping: m, ElemSize: 4, FlushCells: 100, Emit: collectPairs(&pairs)})
		type cell struct {
			idx uint64
			val uint32
		}
		var added []cell
		for i := 0; i < 500; i++ {
			c := grid.Coord{rng.Intn(32), rng.Intn(32)}
			v := rng.Uint32()
			var vb [4]byte
			binary.BigEndian.PutUint32(vb[:], v)
			agg.Add(c, vb[:])
			added = append(added, cell{m.Index(c), v})
		}
		agg.Close()
		// Multiset of (idx, val) must match.
		got := make(map[cell]int)
		for _, p := range pairs {
			for k := uint64(0); k < p.Key.Range.Len(); k++ {
				v := binary.BigEndian.Uint32(p.Values[k*4:])
				got[cell{p.Key.Range.Lo + k, v}]++
			}
		}
		want := make(map[cell]int)
		for _, c := range added {
			want[c]++
		}
		for c, n := range want {
			if got[c] != n {
				t.Fatalf("trial %d: cell %+v seen %d times, want %d", trial, c, got[c], n)
			}
		}
		var totalCells uint64
		for _, p := range pairs {
			totalCells += p.Key.Range.Len()
		}
		if totalCells != 500 {
			t.Fatalf("trial %d: pairs cover %d cells, want 500", trial, totalCells)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	m := mustMapping(t, "zorder", grid.NewBox(grid.Coord{0}, []int{4}))
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("no emit", func() { New(Config{Mapping: m, ElemSize: 1}) })
	mustPanic("no elem size", func() { New(Config{Mapping: m, Emit: func(keys.AggPair) {}}) })
	agg := New(Config{Mapping: m, ElemSize: 2, Emit: func(keys.AggPair) {}})
	mustPanic("bad value size", func() { agg.Add(grid.Coord{0}, []byte{1}) })
}
