// Package pairwise generates the rows of a configuration lattice: given
// axes and the pairs of axis values no valid configuration holds, it picks
// rows, one value per axis, until every other pair of values of two axes
// appears in some row. The engine's lattice and the query lattice draw
// their rows from it; only tests call it.
package pairwise

import (
	"math/rand"
	"slices"
)

// Value is one value of one axis, both counted from zero.
type Value struct{ Axis, Value int }

// Pair is two values of different axes, the lower axis first.
type Pair [2]Value

// PairOf is the pair of value va of axis a and value vb of axis b.
func PairOf(a, va, b, vb int) Pair {
	if a > b {
		a, va, b, vb = b, vb, a, va
	}
	return Pair{{a, va}, {b, vb}}
}

// Pairs lists every pair of values of two axes, sizes[a] values on axis a,
// in a fixed order.
func Pairs(sizes []int) []Pair {
	var out []Pair
	for a := range sizes {
		for b := a + 1; b < len(sizes); b++ {
			for va := range sizes[a] {
				for vb := range sizes[b] {
					out = append(out, Pair{{a, va}, {b, vb}})
				}
			}
		}
	}
	return out
}

// RowPairs lists the pairs row r holds.
func RowPairs(r []int) []Pair {
	var out []Pair
	for a := range r {
		for b := a + 1; b < len(r); b++ {
			out = append(out, Pair{{a, r[a]}, {b, r[b]}})
		}
	}
	return out
}

// Excluded is every pair no row holds: the pairs listed, and the pairs they
// imply — two values exclude each other when some third axis has no value
// both allow.
func Excluded(sizes []int, listed []Pair) map[Pair]bool {
	ex := make(map[Pair]bool)
	for _, p := range listed {
		ex[p] = true
	}
	for _, p := range Pairs(sizes) {
		for c := range sizes {
			free := c == p[0].Axis || c == p[1].Axis
			for v := range sizes[c] {
				free = free || !ex[PairOf(p[0].Axis, p[0].Value, c, v)] && !ex[PairOf(p[1].Axis, p[1].Value, c, v)]
			}
			if !free {
				ex[p] = true
			}
		}
	}
	return ex
}

// Unset is a row of n axes none of which is chosen yet: each holds -1.
func Unset(n int) []int {
	r := make([]int, n)
	for a := range r {
		r[a] = -1
	}
	return r
}

// Fill chooses, in order, every axis r has not set: pick gets the values ex
// lets join the axes already set.
func Fill(r, sizes []int, ex map[Pair]bool, order []int, pick func(axis int, ok []int) int) {
	for _, a := range order {
		if r[a] >= 0 {
			continue
		}
		var ok []int
		for v := range sizes[a] {
			free := true
			for b, vb := range r {
				free = free && (vb < 0 || b == a || !ex[PairOf(a, v, b, vb)])
			}
			if free {
				ok = append(ok, v)
			}
		}
		r[a] = pick(a, ok)
	}
}

// Rows is the lattice over axes of sizes values each when the pairs listed
// are excluded: the seed rows, duplicates dropped, then, for each pair of
// axis values no row holds yet, a row that holds it, its other axes set —
// in an order drawn from seed — to the value holding most new pairs, the
// lowest on a tie.
func Rows(sizes []int, listed []Pair, seed int64, seeds [][]int) [][]int {
	ex := Excluded(sizes, listed)
	var rows [][]int
	covered := make(map[Pair]bool)
	add := func(r []int) {
		rows = append(rows, r)
		for _, p := range RowPairs(r) {
			covered[p] = true
		}
	}
	for _, r := range seeds {
		if !slices.ContainsFunc(rows, func(q []int) bool { return slices.Equal(q, r) }) {
			add(r)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range Pairs(sizes) {
		if covered[p] || ex[p] {
			continue
		}
		r := Unset(len(sizes))
		r[p[0].Axis], r[p[1].Axis] = p[0].Value, p[1].Value
		Fill(r, sizes, ex, rng.Perm(len(sizes)), func(a int, ok []int) int {
			best, most := ok[0], -1
			for _, v := range ok {
				n := 0
				for b, vb := range r {
					if vb >= 0 && b != a && !covered[PairOf(a, v, b, vb)] {
						n++
					}
				}
				if n > most {
					best, most = v, n
				}
			}
			return best
		})
		add(r)
	}
	return rows
}
