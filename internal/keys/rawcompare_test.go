package keys

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/serial"
	"scikey/internal/sfc"
)

// The reference comparators: decode both keys, compare the structs. They
// were the production bodies until the raw comparators stopped decoding;
// they stay here as the definition the raw ones are held to.

// CompareGrid orders GridKeys by variable then coordinate (row-major).
func CompareGrid(a, b GridKey) int {
	if c := compareVar(a.Var, b.Var); c != 0 {
		return c
	}
	return a.Coord.Compare(b.Coord)
}

func refCompareGrid(c *Codec, a, b []byte) int {
	ka, err := c.DecodeGrid(serial.NewDataInput(a))
	if err != nil {
		return serial.CompareBytes(a, b)
	}
	kb, err := c.DecodeGrid(serial.NewDataInput(b))
	if err != nil {
		return serial.CompareBytes(a, b)
	}
	return CompareGrid(ka, kb)
}

func refCompareAgg(c *Codec, a, b []byte) int {
	ka, err := c.DecodeAgg(serial.NewDataInput(a))
	if err != nil {
		return serial.CompareBytes(a, b)
	}
	kb, err := c.DecodeAgg(serial.NewDataInput(b))
	if err != nil {
		return serial.CompareBytes(a, b)
	}
	return CompareAgg(ka, kb)
}

func refCompareBox(c *Codec, a, b []byte) int {
	ka, err := c.DecodeBox(serial.NewDataInput(a))
	if err != nil {
		return serial.CompareBytes(a, b)
	}
	kb, err := c.DecodeBox(serial.NewDataInput(b))
	if err != nil {
		return serial.CompareBytes(a, b)
	}
	return CompareBox(ka, kb)
}

// comparatorKinds pairs each raw comparator with its reference.
var comparatorKinds = []struct {
	name     string
	raw, ref func(c *Codec, a, b []byte) int
}{
	{"grid", (*Codec).RawCompareGrid, refCompareGrid},
	{"agg", (*Codec).RawCompareAgg, refCompareAgg},
	{"box", (*Codec).RawCompareBox, refCompareBox},
}

var (
	comparatorModes = []VarMode{VarNone, VarByIndex, VarByName}
	comparatorRanks = []int{1, 2, 4}
)

// checkRawAgainstReference holds one kind's raw comparator to its reference
// on one pair, in both argument orders.
func checkRawAgainstReference(t *testing.T, kind int, c *Codec, a, b []byte) {
	t.Helper()
	k := comparatorKinds[kind]
	got, want := k.raw(c, a, b), k.ref(c, a, b)
	if cmp.Compare(got, 0) != cmp.Compare(want, 0) {
		t.Fatalf("%s mode=%v rank=%d: raw(%x, %x) = %d, reference %d", k.name, c.Mode, c.Rank, a, b, got, want)
	}
	if rev := k.raw(c, b, a); rev != -got {
		t.Fatalf("%s mode=%v rank=%d: raw(a,b) = %d but raw(b,a) = %d for %x, %x", k.name, c.Mode, c.Rank, got, rev, a, b)
	}
}

// FuzzRawCompare: the in-place comparators agree in sign with the
// decode-based reference and are antisymmetric, on any bytes at all.
func FuzzRawCompare(f *testing.F) {
	i32 := func(vs ...int32) []byte {
		out := serial.NewDataOutput(4 * len(vs))
		for _, v := range vs {
			out.WriteI32(v)
		}
		return out.Bytes()
	}
	cat := func(ps ...[]byte) []byte { return slices.Concat(ps...) }
	name := func(s string) []byte {
		out := serial.NewDataOutput(1 + len(s))
		out.WriteText(s)
		return out.Bytes()
	}
	for mode := range uint8(3) {
		for rank := range uint8(3) {
			for kind := range uint8(3) {
				// Negative coordinates against non-negative ones.
				f.Add(mode, rank, kind, cat(name("v"), i32(-1, 0, 5, 7, 1, 1, 1, 1)), cat(name("v"), i32(0, 0, 5, 7, 1, 1, 1, 1)))
				f.Add(mode, rank, kind, i32(-1, -2, -3, -4, 2, 2, 2, 2), i32(0, 0, 0, 1, 2, 2, 2, 2))
				// Truncated keys.
				f.Add(mode, rank, kind, i32(0, 1)[:7], i32(0, 1, 2, 3, 4, 5, 6, 7, 8))
				f.Add(mode, rank, kind, cat(name("windspeed1"), i32(1)[:3]), cat(name("windspeed1"), i32(1, 2, 3, 4)))
				f.Add(mode, rank, kind, []byte{}, []byte{0})
				// A negative VInt name length: one byte (-1), then a two-byte
				// negative (0x87 0x01 = -2) against a two-byte spelling of 1.
				f.Add(mode, rank, kind, cat([]byte{0xff}, i32(1, 2, 3, 4, 5, 6, 7, 8)), cat(name("v"), i32(1, 2, 3, 4, 5, 6, 7, 8)))
				f.Add(mode, rank, kind, cat([]byte{0x87, 0x01}, i32(1, 2, 3, 4, 5, 6, 7, 8)), cat([]byte{0x8f, 0x01, 'v'}, i32(1, 2, 3, 4, 5, 6, 7, 8)))
				// A negative box size.
				f.Add(mode, rank, kind, cat(name("v"), i32(0, 0, 0, 0, 1, -1, 1, 1)), cat(name("v"), i32(0, 0, 0, 0, 1, 1, 1, 1)))
				f.Add(mode, rank, kind, i32(0, -3), i32(0, 3))
				// Trailing bytes after the last field.
				f.Add(mode, rank, kind, cat(name("v"), i32(1, 2, 3, 4, 5, 6, 7, 8), []byte{9, 9}), cat(name("v"), i32(1, 2, 3, 4, 5, 6, 7, 8)))
				// Unequal names of equal length; a name that prefixes the other.
				f.Add(mode, rank, kind, cat(name("temp"), i32(1, 2, 3, 4, 5, 6, 7, 8)), cat(name("tems"), i32(0, 0, 0, 0, 5, 6, 7, 8)))
				f.Add(mode, rank, kind, cat(name("wind"), i32(9, 9, 9, 9, 5, 6, 7, 8)), cat(name("windspeed1"), i32(0, 0, 0, 0, 5, 6, 7, 8)))
				// Variable indices either side of zero.
				f.Add(mode, rank, kind, i32(-1, 1, 2, 3, 4, 5, 6, 7, 8), i32(1, 1, 2, 3, 4, 5, 6, 7, 8))
			}
		}
	}
	f.Fuzz(func(t *testing.T, mode, rank, kind uint8, a, b []byte) {
		c := &Codec{
			Rank:  comparatorRanks[int(rank)%len(comparatorRanks)],
			Mode:  comparatorModes[int(mode)%len(comparatorModes)],
			Names: []string{"temp", "windspeed1"},
		}
		checkRawAgainstReference(t, int(kind)%len(comparatorKinds), c, a, b)
	})
}

// haloKeys encodes n keys of one kind over a grid with a halo: coordinates
// and corners reach below zero, variables repeat, duplicates occur.
func haloKeys(c *Codec, kind string, n int, rng *rand.Rand) [][]byte {
	vars := []VarRef{{Name: "temp", Index: 0}, {Name: "windspeed1", Index: 1}, {Name: "wind", Index: 2}}
	out := make([][]byte, n)
	for i := range out {
		v := vars[rng.Intn(len(vars))]
		coord := make(grid.Coord, c.Rank)
		for d := range coord {
			coord[d] = rng.Intn(12) - 2
		}
		switch kind {
		case "grid":
			out[i] = gridKeyBytes(c, GridKey{Var: v, Coord: coord})
		case "agg":
			lo := rng.Uint64() >> uint(rng.Intn(64))
			out[i] = c.AggKeyBytes(AggKey{Var: v, Range: sfc.IndexRange{Lo: lo, Hi: lo + uint64(rng.Intn(4))}})
		case "box":
			size := make([]int, c.Rank)
			for d := range size {
				size[d] = 1 + rng.Intn(3)
			}
			out[i] = c.BoxKeyBytes(BoxKey{Var: v, Box: grid.NewBox(coord, size)})
		}
	}
	return out
}

// TestRawCompareSortsLikeReference sorts 10k encoded keys with the raw
// comparator and with the reference; the two stable permutations must match.
func TestRawCompareSortsLikeReference(t *testing.T) {
	for ki, k := range comparatorKinds {
		for _, mode := range comparatorModes {
			t.Run(fmt.Sprintf("%s/%v", k.name, mode), func(t *testing.T) {
				c := &Codec{Rank: 3, Mode: mode, Names: []string{"temp", "windspeed1", "wind"}}
				ks := haloKeys(c, k.name, 10_000, rand.New(rand.NewSource(int64(ki)*7+int64(mode))))
				perm := func(cmp func(a, b []byte) int) []int {
					p := make([]int, len(ks))
					for i := range p {
						p[i] = i
					}
					slices.SortStableFunc(p, func(i, j int) int { return cmp(ks[i], ks[j]) })
					return p
				}
				got := perm(func(a, b []byte) int { return k.raw(c, a, b) })
				want := perm(func(a, b []byte) int { return k.ref(c, a, b) })
				if !slices.Equal(got, want) {
					t.Fatal("raw comparator sorts differently from the decode-based reference")
				}
			})
		}
	}
}

// TestRawCompareDoesNotAllocate: the comparators run once per record pair
// in every sort, merge and grouping loop, so they allocate nothing.
func TestRawCompareDoesNotAllocate(t *testing.T) {
	for _, k := range comparatorKinds {
		for _, mode := range comparatorModes {
			c := &Codec{Rank: 4, Mode: mode, Names: []string{"temp", "windspeed1", "wind"}}
			ks := haloKeys(c, k.name, 64, rand.New(rand.NewSource(1)))
			sink := 0
			allocs := testing.AllocsPerRun(100, func() {
				for i := 1; i < len(ks); i++ {
					sink += k.raw(c, ks[i-1], ks[i])
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%v: %.1f allocations per 63 comparisons, want 0", k.name, mode, allocs)
			}
			_ = sink
		}
	}
}
