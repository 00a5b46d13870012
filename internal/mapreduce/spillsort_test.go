package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"scikey/internal/grid"
	"scikey/internal/keys"
	"scikey/internal/serial"
)

// spillSortInput builds one partition buffer of grid keys from fuzz bytes.
// The codec has rank rank%4+1 and mode mode%3. Each record starts with a
// control byte: bit 0 picks name2 (index 1) over name (index 0); bits 1–2
// keep the key whole (0, 3), cut it short to (ctl>>4) % its length bytes
// (1), or append two trailing bytes (2); bit 3 reads each coordinate as a
// big-endian int32 instead of one signed byte, so most keys sit near the
// sign boundary and tie often. Missing coordinate bytes read as zero.
func spillSortInput(rank, mode uint8, name, name2 string, recs []byte) (*keys.Codec, *partBuffer) {
	kc := &keys.Codec{Rank: int(rank%4) + 1, Mode: keys.VarMode(mode % 3)}
	pb := &partBuffer{}
	out := serial.NewDataOutput(64)
	coord := make(grid.Coord, kc.Rank)
	for len(recs) > 0 {
		ctl := recs[0]
		recs = recs[1:]
		v := keys.VarRef{Name: name}
		if ctl&1 != 0 {
			v = keys.VarRef{Name: name2, Index: 1}
		}
		for d := range coord {
			switch {
			case ctl&8 != 0 && len(recs) >= 4:
				coord[d] = int(int32(binary.BigEndian.Uint32(recs)))
				recs = recs[4:]
			case len(recs) > 0:
				coord[d] = int(int8(recs[0]))
				recs = recs[1:]
			default:
				coord[d] = 0
			}
		}
		out.Reset()
		kc.EncodeGrid(out, keys.GridKey{Var: v, Coord: coord})
		key := out.Bytes()
		switch ctl >> 1 & 3 {
		case 1:
			key = key[:int(ctl>>4)%len(key)]
		case 2:
			key = append(key, ctl, 0xff)
		}
		value := []byte{byte(len(pb.refs))}
		pb.refs = append(pb.refs, newKVRef(len(pb.arena), len(key), len(value)))
		pb.arena = append(append(pb.arena, key...), value...)
	}
	return kc, pb
}

// checkSpillSortOrder sorts the partition through the spill's sort
// decision and through the comparator alone; the two refs sequences must
// be identical. It returns whether the words decided.
func checkSpillSortOrder(t *testing.T, kc *keys.Codec, pb *partBuffer) bool {
	t.Helper()
	want := slices.Clone(pb.refs)
	slices.SortStableFunc(want, func(a, b kvRef) int { return kc.RawCompareGrid(pb.key(a), pb.key(b)) })
	job := &Job{Compare: kc.RawCompareGrid, SortWords: kc.GridWords}
	byWords := job.sortPartition(pb, &wordSort{})
	if !slices.Equal(pb.refs, want) {
		for i := range want {
			if pb.refs[i] != want[i] {
				t.Fatalf("rank %d %v, words path %v: record %d is %x, the comparator's stable sort has %x",
					kc.Rank, kc.Mode, byWords, i, pb.key(pb.refs[i]), pb.key(want[i]))
			}
		}
	}
	return byWords
}

// spillSortSeed is one FuzzSpillSortOrder seed (rank is the codec's
// rank; the fuzz argument is rank-1) and the path the sort must take on it.
type spillSortSeed struct {
	rank, mode  uint8
	name, name2 string
	recs        []byte
	words       bool
}

// haloRecs is 60 records of rank one-byte coordinates in -2..2, in a
// scrambled order: the sign boundary on every axis and, at low ranks, many
// exact ties. ctl[i], when set, is record i's control byte.
func haloRecs(rank int, ctl map[int]byte) []byte {
	var recs []byte
	for i := range 60 {
		recs = append(recs, ctl[i])
		for d := range rank {
			recs = append(recs, byte(int8((i*7+d*3)%5-2)))
		}
	}
	return recs
}

// wideRecs is one record per coordinate tuple, each coordinate a full
// big-endian int32.
func wideRecs(coords ...[]int32) []byte {
	var recs []byte
	for _, c := range coords {
		recs = append(recs, 8)
		for _, x := range c {
			recs = binary.BigEndian.AppendUint32(recs, uint32(x))
		}
	}
	return recs
}

var spillSortSeeds = func() []spillSortSeed {
	type seed = spillSortSeed
	const minI, maxI = -1 << 31, 1<<31 - 1
	var seeds []seed
	for mode := range uint8(3) {
		for rank := uint8(1); rank <= 4; rank++ {
			seeds = append(seeds, seed{rank, mode, "windspeed1", "temp", haloRecs(int(rank), nil), true})
		}
	}
	second := func(ctl byte) map[int]byte { return map[int]byte{1: ctl} }
	return append(seeds,
		seed{2, 2, strings.Repeat("a", 127), "temp", haloRecs(2, nil), true},  // longest one-byte name length
		seed{2, 2, strings.Repeat("a", 128), "temp", haloRecs(2, nil), false}, // two-byte name length
		seed{3, 2, "windspeed1", "temp", wideRecs( // the int32 range; the second word varies
			[]int32{maxI, minI, 0}, []int32{minI, maxI, -1}, []int32{-1, 0, minI},
			[]int32{0, -1, 1}, []int32{-1, 0, maxI}, []int32{minI, maxI, -1}), true},
		seed{4, 1, "windspeed1", "temp", wideRecs(
			[]int32{0, 0, 1, -1}, []int32{0, 0, -1, 1}, []int32{0, 0, 0, 0}, []int32{0, 0, 1, -1}), true},
		seed{2, 0, "windspeed1", "temp", haloRecs(2, second(1)), true},                                // VarNone: a second name is no byte
		seed{2, 1, "windspeed1", "temp", haloRecs(2, second(1)), false},                               // two variables
		seed{2, 2, "windspeed1", "temp", haloRecs(2, second(1)), false},                               // two variables
		seed{3, 2, "windspeed1", "temp", haloRecs(3, second(2|0xf0)), false},                          // a key cut inside its fields
		seed{3, 1, "windspeed1", "temp", haloRecs(3, second(2)), false},                               // a key cut to nothing
		seed{2, 2, "windspeed1", "temp", haloRecs(2, map[int]byte{1: 4, 7: 4}), true},                 // trailing bytes
		seed{2, 2, "windspeed1", "temp", bytes.Repeat([]byte{0, 1, 0xff}, 50), true},                  // all ties
		seed{2, 2, "windspeed1", "temp", append(bytes.Repeat([]byte{0, 1, 0xff}, 50), 0, 0, 0), true}, // one key unlike the rest
		seed{2, 2, "windspeed1", "temp", []byte{0, 0xff, 0xff, 0, 0, 0, 0, 0, 1, 0, 1, 0x80}, true},   // sorted already
	)
}()

// TestSpillSortPath: every seed sorts to the comparator's order, and each
// takes the path its comment names — the words path for every rank 1–4
// under every variable mode, so a SortWords that always said no would
// fail here rather than pass on the comparator.
func TestSpillSortPath(t *testing.T) {
	for i, s := range spillSortSeeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			kc, pb := spillSortInput(s.rank-1, s.mode, s.name, s.name2, s.recs)
			if got := checkSpillSortOrder(t, kc, pb); got != s.words {
				t.Fatalf("rank %d %v: sorted by words = %v, want %v", kc.Rank, kc.Mode, got, s.words)
			}
		})
	}
}

// FuzzSpillSortOrder: on any partition of grid keys, the spill sort gives
// the refs order slices.SortStableFunc(RawCompareGrid) gives.
func FuzzSpillSortOrder(f *testing.F) {
	for _, s := range spillSortSeeds {
		f.Add(s.rank-1, s.mode, s.name, s.name2, s.recs)
	}
	f.Fuzz(func(t *testing.T, rank, mode uint8, name, name2 string, recs []byte) {
		if len(recs) > 1<<14 {
			return
		}
		kc, pb := spillSortInput(rank, mode, name, name2, recs)
		if len(pb.refs) > 0 {
			checkSpillSortOrder(t, kc, pb)
		}
	})
}

// simpleKeyPartition buffers what one SimpleKeyJob map attempt's spill
// sends one reducer: the keys of rows×cols cells at the grid's corner in
// row-major order, nine window keys per cell (the halo reaches -1, across
// the sign boundary) under VarByName "windspeed1", hash-partitioned five
// ways, partition 0 kept, each with a 4-byte value.
func simpleKeyPartition(rows, cols int) (*keys.Codec, *partBuffer) {
	kc := &keys.Codec{Rank: 2, Mode: keys.VarByName}
	v := keys.VarRef{Name: "windspeed1"}
	pb := &partBuffer{}
	out := serial.NewDataOutput(32)
	val := []byte{0, 0, 0, 7}
	grid.ForEach(grid.NewBox(grid.Coord{0, 0}, []int{rows, cols}), func(c grid.Coord) {
		for dy := -1; dy <= 1; dy++ {
			for dx := -1; dx <= 1; dx++ {
				out.Reset()
				kc.EncodeGrid(out, keys.GridKey{Var: v, Coord: grid.Coord{c[0] + dy, c[1] + dx}})
				if keys.HashPartition(out.Bytes(), 5) != 0 {
					continue
				}
				pb.refs = append(pb.refs, newKVRef(len(pb.arena), len(out.Bytes()), len(val)))
				pb.arena = append(append(pb.arena, out.Bytes()...), val...)
			}
		}
	})
	return kc, pb
}

// TestSpillSortSteadyStateAllocs: once its buffer set's scratch has grown,
// a words-path spill of one grid partition allocates nothing.
func TestSpillSortSteadyStateAllocs(t *testing.T) {
	kc, pb := simpleKeyPartition(5, 128)
	job := &Job{Compare: kc.RawCompareGrid, SortWords: kc.GridWords}
	arrival := slices.Clone(pb.refs)
	var ws wordSort
	if !job.sortPartition(pb, &ws) {
		t.Fatal("a SimpleKeyJob partition did not take the words path")
	}
	allocs := testing.AllocsPerRun(20, func() {
		copy(pb.refs, arrival)
		job.sortPartition(pb, &ws)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per warmed spill sort of %d records, want 0", allocs, len(pb.refs))
	}
}

// BenchmarkSpillSort sorts one warmed spill partition of SimpleKeyJob's
// keys (simpleKeyPartition: 5 rows of a 128-cell-wide grid, about as many
// records as one oneshot-baseline spill sends a reducer) by the words path
// and by the comparator alone, from arrival order each time.
func BenchmarkSpillSort(b *testing.B) {
	for _, path := range []string{"words", "compare"} {
		b.Run(path, func(b *testing.B) {
			kc, pb := simpleKeyPartition(5, 128)
			job := &Job{Compare: kc.RawCompareGrid}
			if path == "words" {
				job.SortWords = kc.GridWords
			}
			arrival := slices.Clone(pb.refs)
			var ws wordSort
			if job.sortPartition(pb, &ws) != (path == "words") {
				b.Fatalf("the %s benchmark took the other path", path)
			}
			b.SetBytes(int64(len(pb.arena)))
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				copy(pb.refs, arrival)
				job.sortPartition(pb, &ws)
			}
		})
	}
}
