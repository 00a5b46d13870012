package sfc

import "scikey/internal/grid"

// ZOrder is the Morton curve: the index is formed by bit-interleaving the
// coordinates. Fast to compute (pure bit manipulation, no state), which is
// why the paper adopts it for aggregation, at the cost of worse clustering
// than Hilbert.
type ZOrder struct {
	rank, bits int
}

// NewZOrder returns a Z-order curve over rank dimensions of bits bits each.
func NewZOrder(rank, bits int) *ZOrder {
	checkParams(rank, bits)
	return &ZOrder{rank: rank, bits: bits}
}

// Name implements Curve.
func (z *ZOrder) Name() string { return "zorder" }

// Rank implements Curve.
func (z *ZOrder) Rank() int { return z.rank }

// Side implements Curve.
func (z *ZOrder) Side() int { return 1 << uint(z.bits) }

// Total implements Curve.
func (z *ZOrder) Total() uint64 { return 1 << uint(z.rank*z.bits) }

// Index implements Curve. Bit b of dimension d lands at index bit
// b*rank + (rank-1-d), so dimension 0 is the most significant within each
// bit group, matching row-major tie-breaking at the top level.
func (z *ZOrder) Index(c grid.Coord) uint64 {
	checkCoord(c, z.rank, z.bits)
	switch z.rank {
	case 1:
		return uint64(c[0])
	case 2:
		return spread2(uint64(c[0]))<<1 | spread2(uint64(c[1]))
	case 3:
		return spread3(uint64(c[0]))<<2 | spread3(uint64(c[1]))<<1 | spread3(uint64(c[2]))
	}
	var idx uint64
	for b := z.bits - 1; b >= 0; b-- {
		for d := 0; d < z.rank; d++ {
			idx = idx<<1 | uint64(c[d]>>uint(b))&1
		}
	}
	return idx
}

// Coord implements Curve.
func (z *ZOrder) Coord(idx uint64) grid.Coord {
	switch z.rank {
	case 1:
		return grid.Coord{int(idx)}
	case 2:
		return grid.Coord{int(compact2(idx >> 1)), int(compact2(idx))}
	case 3:
		return grid.Coord{int(compact3(idx >> 2)), int(compact3(idx >> 1)), int(compact3(idx))}
	}
	c := make(grid.Coord, z.rank)
	total := z.rank * z.bits
	for pos := 0; pos < total; pos++ {
		bit := (idx >> uint(total-1-pos)) & 1
		d := pos % z.rank
		c[d] = c[d]<<1 | int(bit)
	}
	return c
}

// spread2 inserts a zero bit between each of the low 32 bits of v.
func spread2(v uint64) uint64 {
	v &= 0xffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// compact2 inverts spread2, extracting every second bit starting at bit 0.
func compact2(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return v
}

// spread3 inserts two zero bits between each of the low 21 bits of v.
func spread3(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// compact3 inverts spread3.
func compact3(v uint64) uint64 {
	v &= 0x1249249249249249
	v = (v | v>>2) & 0x10c30c30c30c30c3
	v = (v | v>>4) & 0x100f00f00f00f00f
	v = (v | v>>8) & 0x1f0000ff0000ff
	v = (v | v>>16) & 0x1f00000000ffff
	v = (v | v>>32) & 0x1fffff
	return v
}
