package grid

// Retired from the shipped package: nothing a binary runs calls the code in
// this file (scripts/reach). It is parked next to the only tests that use it
// because the floor rule lets a PR drop no more than a few tests at once;
// delete each function and its tests together, whenever a PR has room.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// subtract returns b minus o as a set of disjoint boxes. It is used when
// splitting overlapping aggregate keys along overlap boundaries (Fig. 7):
// the overlap region plus the subtract remainders of each key tile the
// originals exactly.
func subtract(b, o Box) []Box {
	inter, ok := b.Intersect(o)
	if !ok {
		return []Box{b.Clone()}
	}
	if inter.Equal(b) {
		return nil
	}
	var out []Box
	rem := b.Clone()
	for d := 0; d < b.Rank(); d++ {
		// Slice off the part of rem below the intersection in dimension d.
		if rem.Corner[d] < inter.Corner[d] {
			low := rem.Clone()
			low.Size[d] = inter.Corner[d] - rem.Corner[d]
			out = append(out, low)
			rem.Size[d] -= low.Size[d]
			rem.Corner[d] = inter.Corner[d]
		}
		// And the part above it.
		interHi := inter.Corner[d] + inter.Size[d]
		if rem.Corner[d]+rem.Size[d] > interHi {
			high := rem.Clone()
			high.Corner[d] = interHi
			high.Size[d] = rem.Corner[d] + rem.Size[d] - interHi
			out = append(out, high)
			rem.Size[d] = interHi - rem.Corner[d]
		}
	}
	return out
}

// alignTo expands b outward so that both corners are multiples of align in
// every dimension (Section IV-C's alignment expansion: keys may contain
// empty space to make overlapping keys more likely to be exactly equal).
func alignTo(b Box, align int) Box {
	if align <= 1 {
		return b.Clone()
	}
	lo := make(Coord, b.Rank())
	size := make([]int, b.Rank())
	for i := range lo {
		lo[i] = floorDiv(b.Corner[i], align) * align
		hi := ceilDiv(b.Corner[i]+b.Size[i], align) * align
		size[i] = hi - lo[i]
	}
	return Box{Corner: lo, Size: size}
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int) int { return -floorDiv(-a, b) }

func TestBoxAlignTo(t *testing.T) {
	b := NewBox(Coord{-1, 9}, []int{12, 12})
	a := alignTo(b, 8)
	want := NewBox(Coord{-8, 8}, []int{24, 16})
	if !a.Equal(want) {
		t.Errorf("AlignTo(8) = %v, want %v", a, want)
	}
	if !a.ContainsBox(b) {
		t.Error("aligned box must contain the original")
	}
	if !alignTo(b, 1).Equal(b) || !alignTo(b, 0).Equal(b) {
		t.Error("AlignTo(<=1) must be identity")
	}
}

func TestSubtract(t *testing.T) {
	b := NewBox(Coord{0, 0}, []int{10, 10})
	o := NewBox(Coord{3, 3}, []int{4, 4})
	parts := subtract(b, o)
	var total int64
	for i, p := range parts {
		total += p.NumCells()
		if p.Overlaps(o) {
			t.Errorf("piece %v overlaps subtrahend", p)
		}
		for j := 0; j < i; j++ {
			if parts[j].Overlaps(p) {
				t.Errorf("pieces %d and %d overlap", j, i)
			}
		}
	}
	if total != b.NumCells()-o.NumCells() {
		t.Errorf("Subtract covers %d cells, want %d", total, b.NumCells()-o.NumCells())
	}
	if got := subtract(b, NewBox(Coord{50, 50}, []int{1, 1})); len(got) != 1 || !got[0].Equal(b) {
		t.Error("Subtract of disjoint box must return the original")
	}
	if got := subtract(o, b); got != nil {
		t.Errorf("Subtract of containing box must be empty, got %v", got)
	}
}

func TestSubtractQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randBox := func() Box {
		c := Coord{rng.Intn(21) - 10, rng.Intn(21) - 10}
		return NewBox(c, []int{1 + rng.Intn(10), 1 + rng.Intn(10)})
	}
	for trial := 0; trial < 300; trial++ {
		b, o := randBox(), randBox()
		parts := subtract(b, o)
		// Every cell of b is either in o or in exactly one part.
		ForEach(b, func(c Coord) {
			count := 0
			for _, p := range parts {
				if p.Contains(c) {
					count++
				}
			}
			if o.Contains(c) {
				if count != 0 {
					t.Fatalf("cell %v in subtrahend covered %d times", c, count)
				}
			} else if count != 1 {
				t.Fatalf("cell %v covered %d times (b=%v o=%v)", c, count, b, o)
			}
		})
	}
}

func TestFloorCeilDiv(t *testing.T) {
	// For positive divisors, floorDiv(a,b) is the unique q with
	// q*b <= a < (q+1)*b and ceilDiv the unique c with (c-1)*b < a <= c*b.
	f := func(a int16, b int8) bool {
		if b <= 0 {
			return true
		}
		q := floorDiv(int(a), int(b))
		if !(q*int(b) <= int(a) && int(a) < (q+1)*int(b)) {
			return false
		}
		c := ceilDiv(int(a), int(b))
		return c*int(b) >= int(a) && int(a) > (c-1)*int(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
