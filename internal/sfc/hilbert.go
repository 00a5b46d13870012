package sfc

import "scikey/internal/grid"

// Hilbert is the n-dimensional Hilbert curve, computed with Skilling's
// transposed-coordinate algorithm ("Programming the Hilbert curve", 2004).
// Moon et al. showed it clusters multidimensional boxes into fewer
// contiguous index runs than Z-order, at a higher per-point cost — the
// trade-off the paper weighs in Section IV-A.
type Hilbert struct {
	rank, bits int
}

// NewHilbert returns a Hilbert curve over rank dimensions of bits bits each.
func NewHilbert(rank, bits int) *Hilbert {
	checkParams(rank, bits)
	return &Hilbert{rank: rank, bits: bits}
}

// Name implements Curve.
func (h *Hilbert) Name() string { return "hilbert" }

// Rank implements Curve.
func (h *Hilbert) Rank() int { return h.rank }

// Side implements Curve.
func (h *Hilbert) Side() int { return 1 << uint(h.bits) }

// Total implements Curve.
func (h *Hilbert) Total() uint64 { return 1 << uint(h.rank*h.bits) }

// Index implements Curve.
func (h *Hilbert) Index(c grid.Coord) uint64 {
	checkCoord(c, h.rank, h.bits)
	X := make([]uint64, h.rank)
	for i, v := range c {
		X[i] = uint64(v)
	}
	axesToTranspose(X, h.bits)
	// Interleave the transposed form, X[0] most significant.
	var idx uint64
	for b := h.bits - 1; b >= 0; b-- {
		for d := 0; d < h.rank; d++ {
			idx = idx<<1 | (X[d]>>uint(b))&1
		}
	}
	return idx
}

// Coord implements Curve.
func (h *Hilbert) Coord(idx uint64) grid.Coord {
	X := make([]uint64, h.rank)
	total := h.rank * h.bits
	for pos := 0; pos < total; pos++ {
		bit := (idx >> uint(total-1-pos)) & 1
		X[pos%h.rank] = X[pos%h.rank]<<1 | bit
	}
	transposeToAxes(X, h.bits)
	c := make(grid.Coord, h.rank)
	for i, v := range X {
		c[i] = int(v)
	}
	return c
}

// axesToTranspose converts coordinates (in place) into the transposed
// Hilbert representation.
func axesToTranspose(X []uint64, bits int) {
	n := len(X)
	M := uint64(1) << uint(bits-1)
	// Inverse undo.
	for Q := M; Q > 1; Q >>= 1 {
		P := Q - 1
		for i := 0; i < n; i++ {
			if X[i]&Q != 0 {
				X[0] ^= P
			} else {
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		X[i] ^= X[i-1]
	}
	var t uint64
	for Q := M; Q > 1; Q >>= 1 {
		if X[n-1]&Q != 0 {
			t ^= Q - 1
		}
	}
	for i := range X {
		X[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose.
func transposeToAxes(X []uint64, bits int) {
	n := len(X)
	N := uint64(2) << uint(bits-1)
	// Gray decode by H ^ (H/2).
	t := X[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		X[i] ^= X[i-1]
	}
	X[0] ^= t
	// Undo excess work.
	for Q := uint64(2); Q != N; Q <<= 1 {
		P := Q - 1
		for i := n - 1; i >= 0; i-- {
			if X[i]&Q != 0 {
				X[0] ^= P
			} else {
				tt := (X[0] ^ X[i]) & P
				X[0] ^= tt
				X[i] ^= tt
			}
		}
	}
}
