package sfc

import (
	"fmt"

	"scikey/internal/grid"
)

// Peano is the n-dimensional Peano curve, the third curve Section IV-A
// names as an aggregation candidate. Unlike Z-order and Hilbert it is
// base 3: the cube side is 3^Digits.
//
// Construction (Peano's original definition, generalized as in Haverkort's
// treatment of higher-dimensional recursive curves): write the index as
// Rank x Digits base-3 digits, dimension-major within each level. The
// coordinate digit of dimension j at level i is the corresponding index
// digit, reflected (d -> 2-d) iff the sum of all more significant index
// digits belonging to *other* dimensions is odd. Like Hilbert, consecutive
// indices are adjacent cells (Manhattan distance 1).
type Peano struct {
	rank, digits int
	total        uint64
	pow          []uint64 // pow[i] = 3^i
}

// NewPeano returns a Peano curve over rank dimensions of 3^digits cells
// each. rank*digits base-3 digits must fit in a uint64 index.
func NewPeano(rank, digits int) *Peano {
	if rank < 1 || digits < 1 {
		panic("sfc: peano rank and digits must be >= 1")
	}
	n := rank * digits
	pow := make([]uint64, n+1)
	pow[0] = 1
	for i := 1; i <= n; i++ {
		if pow[i-1] > (1<<63)/3 {
			panic(fmt.Sprintf("sfc: peano rank %d x digits %d overflows uint64", rank, digits))
		}
		pow[i] = pow[i-1] * 3
	}
	return &Peano{rank: rank, digits: digits, total: pow[n], pow: pow}
}

// Name implements Curve.
func (p *Peano) Name() string { return "peano" }

// Rank implements Curve.
func (p *Peano) Rank() int { return p.rank }

// Side implements Curve.
func (p *Peano) Side() int { return int(p.pow[p.digits]) }

// Total implements Curve.
func (p *Peano) Total() uint64 { return p.total }

// Index implements Curve.
func (p *Peano) Index(c grid.Coord) uint64 {
	if len(c) != p.rank {
		panic(fmt.Sprintf("sfc: coordinate rank %d, curve rank %d", len(c), p.rank))
	}
	side := p.Side()
	for _, v := range c {
		if v < 0 || v >= side {
			panic(fmt.Sprintf("sfc: coordinate %v outside [0,%d)", c, side))
		}
	}
	// Extract each dimension's base-3 digits, most significant first.
	coordDigits := make([][]byte, p.rank)
	for j, v := range c {
		d := make([]byte, p.digits)
		for i := p.digits - 1; i >= 0; i-- {
			d[i] = byte(v % 3)
			v /= 3
		}
		coordDigits[j] = d
	}
	// otherSum[j] is the running sum of emitted index digits belonging to
	// dimensions other than j.
	otherSum := make([]int, p.rank)
	var idx uint64
	for i := 0; i < p.digits; i++ {
		for j := 0; j < p.rank; j++ {
			e := coordDigits[j][i]
			if otherSum[j]&1 == 1 {
				e = 2 - e
			}
			idx = idx*3 + uint64(e)
			for k := 0; k < p.rank; k++ {
				if k != j {
					otherSum[k] += int(e)
				}
			}
		}
	}
	return idx
}

// Coord implements Curve.
func (p *Peano) Coord(idx uint64) grid.Coord {
	if idx >= p.total {
		panic(fmt.Sprintf("sfc: index %d outside [0,%d)", idx, p.total))
	}
	n := p.rank * p.digits
	// Index digits, most significant first.
	eds := make([]byte, n)
	for m := n - 1; m >= 0; m-- {
		eds[m] = byte(idx % 3)
		idx /= 3
	}
	otherSum := make([]int, p.rank)
	c := make(grid.Coord, p.rank)
	for m := 0; m < n; m++ {
		j := m % p.rank
		e := eds[m]
		d := e
		if otherSum[j]&1 == 1 {
			d = 2 - e
		}
		c[j] = c[j]*3 + int(d)
		for k := 0; k < p.rank; k++ {
			if k != j {
				otherSum[k] += int(e)
			}
		}
	}
	return c
}
