package keys

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
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
				// Equal variables, then coordinates either side of the sign
				// boundary, in the first and in a later field.
				f.Add(mode, rank, kind, cat(name("v"), i32(0x7fffffff, 0, 0, 0, 1, 1, 1, 1)), cat(name("v"), i32(-0x80000000, 0, 0, 0, 1, 1, 1, 1)))
				f.Add(mode, rank, kind, cat(name("v"), i32(3, 0x7fffffff, -0x80000000, 0x7fffffff, 1, 1, 1, 1)), cat(name("v"), i32(3, -0x80000000, 0x7fffffff, -0x80000000, 1, 1, 1, 1)))
				// Equal 128-byte names: the length is a two-byte VInt.
				long := strings.Repeat("w", 128)
				f.Add(mode, rank, kind, cat(name(long), i32(-1, 2, 3, 4, 5, 6, 7, 8)), cat(name(long), i32(1, 2, 3, 4, 5, 6, 7, 8)))
				// Equal names, one key cut short inside the fields.
				f.Add(mode, rank, kind, cat(name("windspeed1"), i32(1, 2, 3, 4, 5, 6, 7, 8)[:5]), cat(name("windspeed1"), i32(1, 2, 3, 4, 5, 6, 7, 8)))
				f.Add(mode, rank, kind, cat(name("windspeed1"), i32(9)[:3]), cat(name("windspeed1"), i32(-9)[:2]))
				// Equal names, trailing bytes after equal and unequal fields.
				f.Add(mode, rank, kind, cat(name("windspeed1"), i32(1, 2, 3, 4, 5, 6, 7, 8), []byte{0}), cat(name("windspeed1"), i32(1, 2, 3, 4, 5, 6, 7, 8), []byte{1, 2}))
				f.Add(mode, rank, kind, cat(name("windspeed1"), i32(-1, 2, 3, 4, 5, 6, 7, 8), []byte{0}), cat(name("windspeed1"), i32(1, 2, 3, 4, 5, 6, 7, 8)))
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

// TestGridWordsOrderLikeRawCompare: GridWords answers exactly where
// sameVar does, and two keys whose variable sections are the same bytes
// compare as their words do. The keys mix three variables, a 127- and a
// 128-byte name, halo coordinates across the sign boundary, keys cut short
// and keys with trailing bytes.
func TestGridWordsOrderLikeRawCompare(t *testing.T) {
	for _, mode := range comparatorModes {
		for rank := 1; rank <= 4; rank++ {
			c := &Codec{Rank: rank, Mode: mode, Names: []string{"temp", "windspeed1", "wind"}}
			rng := rand.New(rand.NewSource(int64(rank)*3 + int64(mode)))
			ks := haloKeys(c, "grid", 2000, rng)
			for i, k := range ks {
				switch i % 7 {
				case 1:
					ks[i] = k[:rng.Intn(len(k))]
				case 2:
					ks[i] = append(k, 0xff, byte(i))
				case 3:
					ks[i] = gridKeyBytes(c, GridKey{Var: VarRef{Name: strings.Repeat("n", 127+i%2)}, Coord: make(grid.Coord, rank)})
				}
			}
			words := func(k []byte) ([2]uint64, int, bool) {
				hi, lo, end, ok := c.GridWords(k)
				if _, same := c.sameVar(k, k, 4*rank); same != ok {
					t.Fatalf("mode=%v rank=%d: GridWords ok=%v but sameVar ok=%v for %x", mode, rank, ok, same, k)
				}
				return [2]uint64{hi, lo}, end, ok
			}
			compared := 0
			for i := range ks {
				a, b := ks[i], ks[rng.Intn(len(ks))]
				wa, ea, oka := words(a)
				wb, eb, okb := words(b)
				if !oka || !okb || string(a[:ea]) != string(b[:eb]) {
					continue
				}
				got := cmp.Or(cmp.Compare(wa[0], wb[0]), cmp.Compare(wa[1], wb[1]))
				if want := c.RawCompareGrid(a, b); cmp.Compare(want, 0) != got {
					t.Fatalf("mode=%v rank=%d: words order %x, %x as %d, RawCompareGrid %d", mode, rank, a, b, got, want)
				}
				compared++
			}
			if compared < len(ks)/10 {
				t.Fatalf("mode=%v rank=%d: only %d of %d pairs shared a variable section", mode, rank, compared, len(ks))
			}
		}
	}
}

// TestAggBounds: on any key DecodeAgg reads with nothing left over and a
// non-empty range, AggBounds reads the same bounds and a variable section
// that AppendAggKey turns back into the same bytes; on any other key it
// says no.
func TestAggBounds(t *testing.T) {
	for _, mode := range comparatorModes {
		c := &Codec{Mode: mode, Names: []string{"temp", "windspeed1", "wind"}}
		for _, k := range haloKeys(c, "agg", 2000, rand.New(rand.NewSource(int64(mode)))) {
			for _, k := range [][]byte{k, k[:len(k)-1], append(slices.Clip(k), 0)} {
				in := serial.NewDataInput(k)
				want, err := c.DecodeAgg(in)
				valid := err == nil && in.Remaining() == 0 && want.Range.Hi > want.Range.Lo
				prefix, lo, hi, ok := c.AggBounds(k)
				if ok != valid {
					t.Fatalf("mode=%v: AggBounds(%x) ok=%v, want %v", mode, k, ok, valid)
				}
				if !ok {
					continue
				}
				if lo != want.Range.Lo || hi != want.Range.Hi {
					t.Fatalf("mode=%v: AggBounds(%x) = [%d,%d), DecodeAgg %v", mode, k, lo, hi, want)
				}
				if got := AppendAggKey(nil, prefix, lo, hi); !slices.Equal(got, k) {
					t.Fatalf("mode=%v: AppendAggKey(AggBounds(%x)) = %x", mode, k, got)
				}
			}
		}
	}
}

// TestAggBoundsRejectsMalformed names each way a key can fail to be one
// AggKey. A name length only exists under VarByName.
func TestAggBoundsRejectsMalformed(t *testing.T) {
	u64s := func(vs ...uint64) []byte {
		out := serial.NewDataOutput(8 * len(vs))
		for _, v := range vs {
			out.WriteU64(v)
		}
		return out.Bytes()
	}
	type badKey struct {
		name string
		key  []byte
	}
	for _, mode := range comparatorModes {
		c := &Codec{Mode: mode}
		prefix := c.AggKeyBytes(AggKey{Var: VarRef{Name: "windspeed1", Index: 1}})
		prefix = prefix[:len(prefix)-16]
		cases := []badKey{
			{"empty", nil},
			{"short", slices.Concat(prefix, u64s(3, 9))[:len(prefix)+15]},
			{"lo only", slices.Concat(prefix, u64s(3))},
			{"trailing byte", slices.Concat(prefix, u64s(3, 9), []byte{0})},
			{"trailing word", slices.Concat(prefix, u64s(3, 9, 9))},
			{"empty range", slices.Concat(prefix, u64s(9, 9))},
			{"inverted range", slices.Concat(prefix, u64s(9, 3))},
		}
		if mode == VarByName {
			cases = append(cases,
				badKey{"negative name length", slices.Concat([]byte{0xff}, u64s(3, 9))},
				badKey{"two-byte negative name length", slices.Concat([]byte{0x87, 0x01}, u64s(3, 9))},
				badKey{"overlong name length", slices.Concat([]byte{40}, []byte("windspeed1"), u64s(3, 9))},
				badKey{"truncated length", []byte{0x8f}},
			)
		}
		for _, tc := range cases {
			if _, _, _, ok := c.AggBounds(tc.key); ok {
				t.Errorf("mode=%v %s: AggBounds(%x) ok", mode, tc.name, tc.key)
			}
		}
		if _, lo, hi, ok := c.AggBounds(slices.Concat(prefix, u64s(3, 9))); !ok || lo != 3 || hi != 9 {
			t.Errorf("mode=%v: the well-formed key reads [%d,%d) ok=%v", mode, lo, hi, ok)
		}
	}
}

// BenchmarkRawCompare times one comparison of two keys of the same
// variable, the pair sort, merge and grouping compare almost always: keys
// of one variable in row-major order, each compared with its successor.
// Rank 2 is the benchmark queries' grid; agg keys are 16-cell ranges.
func BenchmarkRawCompare(b *testing.B) {
	const n = 1024
	for _, kind := range []string{"grid", "agg"} {
		for _, mode := range comparatorModes {
			b.Run(fmt.Sprintf("%s/%v", kind, mode), func(b *testing.B) {
				c := &Codec{Rank: 2, Mode: mode, Names: []string{"windspeed1"}}
				v := VarRef{Name: "windspeed1"}
				ks := make([][]byte, n)
				for i := range ks {
					if kind == "grid" {
						ks[i] = gridKeyBytes(c, GridKey{Var: v, Coord: grid.Coord{i / 32, i%32 - 1}})
					} else {
						lo := uint64(16 * i)
						ks[i] = c.AggKeyBytes(AggKey{Var: v, Range: sfc.IndexRange{Lo: lo, Hi: lo + 16}})
					}
				}
				raw := (*Codec).RawCompareGrid
				if kind == "agg" {
					raw = (*Codec).RawCompareAgg
				}
				sink := 0
				b.ResetTimer()
				for i := range b.N {
					j := i % (n - 1)
					sink += raw(c, ks[j], ks[j+1])
				}
				if sink != -b.N {
					b.Fatalf("%d keys in order compared %d, want -%d", b.N, sink, b.N)
				}
			})
		}
	}
}
