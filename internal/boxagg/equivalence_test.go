package boxagg

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/keys"
)

// flushChoices are the thresholds every stream runs under; 0 is the default.
var flushChoices = []int{1, 7, 64, 0}

// domains are the output domains the streams draw from, ranks 2 and 3, each
// with a halo below zero.
var domains = []grid.Box{
	grid.NewBox(grid.Coord{-1, -1}, []int{12, 9}),
	grid.NewBox(grid.Coord{-2, -1, -3}, []int{5, 6, 7}),
}

// Add is AddIndex by coordinate, the entry point the tests drive; c is not
// retained. The mapper has each target's offset already (scihadoop's
// window walk), so no binary adds by coordinate and it lives here.
func (a *Aggregator) Add(c grid.Coord, val []byte) { a.AddIndex(a.domain.Index(c), val) }

// cell is one step of a stream: a coordinate to add, or (nil) an explicit
// Flush.
type cell = grid.Coord

// assertSameBoxes sends stream through the reference and the shipped
// Aggregator and compares the pair sequences: order, boxes and value bytes.
// Each cell's value is its ordinal in the stream, so the sequences agree only
// when every duplicate of a coordinate landed in the same layer.
func assertSameBoxes(t testing.TB, domain grid.Box, stream []cell, flush int) {
	t.Helper()
	var want, got []Pair
	cfg := Config{Domain: domain, Var: keys.VarRef{Name: "v"}, ElemSize: 4, FlushCells: flush}
	cfg.Emit = collect(&want)
	ref := newRef(cfg)
	cfg.Emit = collect(&got)
	agg := New(cfg)
	var ord [4]byte
	scratch := make(grid.Coord, domain.Rank())
	for i, c := range stream {
		if c == nil {
			ref.Flush()
			agg.Flush()
			continue
		}
		binary.BigEndian.PutUint32(ord[:], uint32(i))
		ref.Add(c, ord[:])
		copy(scratch, c)
		agg.Add(scratch, ord[:]) // reused, as the mapper does
	}
	ref.Close()
	agg.Close()

	label := fmt.Sprintf("rank %d flush %d", domain.Rank(), flush)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, reference emits %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Key.Var != want[i].Key.Var || !got[i].Key.Box.Equal(want[i].Key.Box) {
			t.Fatalf("%s: pair %d key %v, reference %v", label, i, got[i].Key, want[i].Key)
		}
		if !bytes.Equal(got[i].Values, want[i].Values) {
			t.Fatalf("%s: pair %d (%v) values %x, reference %x", label, i, want[i].Key.Box, got[i].Values, want[i].Values)
		}
	}
}

// windowStream is the mapper's traffic: a row-major walk of split, every cell
// sent to each target of its radius-1 window (nine in rank 2, so a cell of
// the interior is added nine times).
func windowStream(split grid.Box) []cell {
	origin := grid.Box{Corner: make(grid.Coord, split.Rank()), Size: make([]int, split.Rank())}
	for d := range origin.Size {
		origin.Size[d] = 1
	}
	window := origin.Expand(1)
	var out []cell
	grid.ForEach(split, func(c grid.Coord) {
		grid.ForEach(window, func(off grid.Coord) { out = append(out, c.Add(off)) })
	})
	return out
}

func TestBoxFlushEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, domain := range domains {
		interior := domain.Expand(-1)
		split := interior.Clone()
		split.Size[0] = 2
		streams := map[string][]cell{
			"empty":      nil,
			"flush only": {nil, nil},
			"one cell":   {domain.Corner},
			"window":     windowStream(split),
		}
		same := make([]cell, 9)
		for i := range same {
			same[i] = interior.Corner
		}
		streams["same cell nine times"] = same
		var whole, scattered []cell
		grid.ForEach(domain, func(c grid.Coord) { whole = append(whole, c.Clone()) })
		streams["whole domain"] = whole
		reversed := append([]cell(nil), whole...)
		for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
			reversed[i], reversed[j] = reversed[j], reversed[i]
		}
		streams["whole domain descending"] = reversed
		for i := 0; i < 600; i++ {
			if rng.Intn(50) == 0 {
				scattered = append(scattered, nil)
				continue
			}
			scattered = append(scattered, whole[rng.Intn(len(whole)/3)])
		}
		streams["random with explicit flushes"] = scattered

		for name, stream := range streams {
			t.Run(fmt.Sprintf("rank%d/%s", domain.Rank(), name), func(t *testing.T) {
				for _, flush := range flushChoices {
					assertSameBoxes(t, domain, stream, flush)
				}
			})
		}
	}
}

// FuzzBoxFlushEquivalence decodes data as a little program over a cursor
// cell of the chosen domain — op 0 adds the cursor's cell again (up to nine
// times: duplicates), op 1 adds a run along the last dimension, op 2 a small
// block of such runs stacked along the first (what greedy merging joins),
// op 3 moves the cursor, op 4 flushes — and checks the emission against the
// reference under one threshold.
func FuzzBoxFlushEquivalence(f *testing.F) {
	f.Add([]byte{0, 9, 1, 5, 3, 7, 2, 3, 0, 2}, uint8(0), uint8(0))
	f.Add([]byte{2, 8, 2, 8, 3, 1, 2, 8, 4, 0, 1, 6}, uint8(1), uint8(1))
	f.Add([]byte{1, 200, 3, 40, 1, 200, 0, 9, 3, 255, 0, 9}, uint8(2), uint8(1))
	f.Add([]byte{0, 3, 3, 1, 0, 3, 3, 1, 0, 3, 4, 0, 0, 3}, uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, flushSel, domainSel uint8) {
		domain := domains[int(domainSel)%len(domains)]
		total := int(domain.NumCells())
		at := func(offset int) cell { return grid.CoordAtRowMajor(domain, int64(offset%total)) }
		var stream []cell
		cursor := 0
		for i := 0; i+1 < len(data) && len(stream) < 1<<10; i += 2 {
			arg := int(data[i+1])
			switch data[i] % 5 {
			case 0:
				for k := 0; k < 1+arg%9; k++ {
					stream = append(stream, at(cursor))
				}
			case 1:
				for k := 0; k < arg%16; k++ {
					stream = append(stream, at(cursor+k))
				}
			case 2:
				rowLen := total / domain.Size[0]
				for r := 0; r < 1+arg%4; r++ {
					for k := 0; k < 1+arg/4%4; k++ {
						stream = append(stream, at(cursor+r*rowLen+k))
					}
				}
			case 3:
				cursor = (cursor + arg*7) % total
			case 4:
				stream = append(stream, nil)
			}
		}
		assertSameBoxes(t, domain, stream, flushChoices[int(flushSel)%len(flushChoices)])
	})
}
