package mapreduce

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"scikey/internal/codec"
	"scikey/internal/grid"
	"scikey/internal/keys"
	"scikey/internal/serial"
)

// mergeOrderSegs deals a spillSortInput partition out to k segments: record
// i goes to segment route[i%len(route)] % k, or i % k without a route. Each
// segment is sorted stably by RawCompareGrid, as a spill is, and each value
// is rewritten to the record's (segment, position), so the order in which a
// merge lets equal keys out is visible in its values. Segments carry their
// index as provenance, so no merge recycles them and both merges of one
// check read the same bytes. A segment dealt nothing is left zero-length.
func mergeOrderSegs(t testing.TB, kc *keys.Codec, pb *partBuffer, k int, route []byte) []segment {
	t.Helper()
	runs := make([][]KV, k)
	for i, r := range pb.refs {
		s := i % k
		if len(route) > 0 {
			s = int(route[i%len(route)]) % k
		}
		runs[s] = append(runs[s], KV{Key: pb.key(r)})
	}
	segs := make([]segment, k)
	for s, run := range runs {
		if len(run) == 0 {
			continue
		}
		slices.SortStableFunc(run, func(a, b KV) int { return kc.RawCompareGrid(a.Key, b.Key) })
		for p := range run {
			run[p].Value = binary.BigEndian.AppendUint32([]byte{byte(s)}, uint32(p))
		}
		seg, err := writeSegment(run, codec.None)
		if err != nil {
			t.Fatal(err)
		}
		seg.src = s
		segs[s] = seg
	}
	return segs
}

// drainMerge reads a merge to its end, copying every record.
func drainMerge(t testing.TB, m kvStream) []KV {
	t.Helper()
	var out []KV
	for {
		kv, err := m.pull()
		if err != nil {
			t.Fatal(err)
		}
		if kv == nil {
			return out
		}
		out = append(out, KV{Key: bytes.Clone(kv.Key), Value: bytes.Clone(kv.Value)})
	}
}

// mergePath is which comparison a merge used: words from its first record
// to its last, words until some record switched it to the comparator, or
// the comparator throughout.
type mergePath int

const (
	pathWords mergePath = iota
	pathSwitched
	pathCompare
)

func (p mergePath) String() string {
	return [...]string{"words", "words then compare", "compare"}[p]
}

// checkMergeOrder merges segs with the job's key order (RawCompareGrid and
// GridWords) and with refMergeStream over RawCompareGrid, and requires the
// same (key, value) sequence. It returns the path the merge took.
func checkMergeOrder(t testing.TB, kc *keys.Codec, segs []segment) mergePath {
	t.Helper()
	env := readEnv{codec: codec.None, part: -1}
	ref, err := newRefMergeStream(segs, env, kc.RawCompareGrid)
	if err != nil {
		t.Fatal(err)
	}
	want := drainMerge(t, ref)
	ref.close()
	m, err := newMergeStream(segs, env, keyOrder{kc.RawCompareGrid, kc.GridWords})
	if err != nil {
		t.Fatal(err)
	}
	startedByWords := m.h.byWords
	got := drainMerge(t, m)
	path := pathCompare
	switch {
	case m.h.byWords:
		path = pathWords
	case startedByWords:
		path = pathSwitched
	}
	m.close()
	if len(got) != len(want) {
		t.Fatalf("merge by %v gave %d records, the reference merge %d", path, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Key, want[i].Key) || !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("merge by %v: record %d is %x (segment, position %x), the reference merge has %x (%x)",
				path, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
	return path
}

// checkMergeDownOrder runs mergeDown at merge factor 2 down to one segment
// and refMergeDown the same way; the two segments must be byte-identical.
func checkMergeDownOrder(t testing.TB, kc *keys.Codec, segs []segment) {
	t.Helper()
	env := readEnv{codec: codec.None, part: -1}
	want, err := refMergeDown(slices.Clone(segs), env, kc.RawCompareGrid, 2, 1, codec.None)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mergeDown(slices.Clone(segs), env, keyOrder{kc.RawCompareGrid, kc.GridWords}, 2, 1, codec.None, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(want) != 1 {
		t.Fatalf("merged down to %d segments, the reference to %d; want 1", len(got), len(want))
	}
	if !bytes.Equal(got[0].data, want[0].data) {
		t.Fatalf("mergeDown at factor 2 wrote %d bytes unlike refMergeDown's %d", len(got[0].data), len(want[0].data))
	}
	recycleSegment(got[0])
	recycleSegment(want[0])
}

// rank5Partition buffers n rank-5 grid keys of kc, coordinates in -1..1:
// keys GridWords has no words for.
func rank5Partition(kc *keys.Codec, n int) *partBuffer {
	pb := &partBuffer{}
	out := serial.NewDataOutput(64)
	c := make(grid.Coord, 5)
	for i := range n {
		for d := range c {
			c[d] = (i*7+d)%3 - 1
		}
		out.Reset()
		kc.EncodeGrid(out, keys.GridKey{Var: keys.VarRef{Name: "windspeed1"}, Coord: c})
		value := []byte{byte(i)}
		pb.refs = append(pb.refs, newKVRef(len(pb.arena), len(out.Bytes()), len(value)))
		pb.arena = append(append(pb.arena, out.Bytes()...), value...)
	}
	return pb
}

// TestMergeOrderMatchesReference: the merge heap lets records out in
// refMergeStream's order — equal keys included, which the values' (segment,
// position) make visible — on the path each case names, and mergeDown at
// merge factor 2 writes refMergeDown's bytes.
func TestMergeOrderMatchesReference(t *testing.T) {
	second := func(ctl byte) map[int]byte { return map[int]byte{1: ctl} }
	// late marks records 47 and 57 with ctl; their first coordinate is 2.
	// Dealt i % 4, each shares a segment with smaller first coordinates,
	// which sort before a key cut short after that coordinate (a cut key
	// compares as bytes) and before any key of the second variable.
	late := func(ctl byte) map[int]byte { return map[int]byte{47: ctl, 57: ctl} }
	for _, c := range []struct {
		name       string
		rank, mode uint8
		recs       []byte
		k          int
		route      []byte
		recordless bool // add an IFile segment of no records
		path       mergePath
	}{
		{name: "ties across segments", rank: 2, mode: 2, recs: haloRecs(2, nil), k: 5, path: pathWords},
		{name: "ties across segments, rank 1", rank: 1, mode: 2, recs: haloRecs(1, nil), k: 7, route: []byte{3, 1, 4, 1, 5, 9, 2, 6}, path: pathWords},
		{name: "all keys equal", rank: 2, mode: 2, recs: bytes.Repeat([]byte{0, 1, 0xff}, 60), k: 6, path: pathWords},
		{name: "rank 4, lo word varies", rank: 4, mode: 1, recs: haloRecs(4, nil), k: 4, path: pathWords},
		{name: "no variable section", rank: 3, mode: 0, recs: haloRecs(3, second(1)), k: 5, path: pathWords},
		{name: "two sections, the second sorts first", rank: 2, mode: 2, recs: haloRecs(2, second(1)), k: 5, path: pathCompare},
		{name: "two sections, the second sorts last", rank: 2, mode: 1, recs: haloRecs(2, late(1)), k: 4, path: pathSwitched},
		{name: "a key cut short mid-stream", rank: 3, mode: 2, recs: haloRecs(3, late(2|0xf0)), k: 4, path: pathSwitched},
		{name: "a key cut to nothing", rank: 3, mode: 1, recs: haloRecs(3, second(2)), k: 5, path: pathCompare},
		{name: "trailing bytes", rank: 2, mode: 2, recs: haloRecs(2, map[int]byte{1: 4, 7: 4, 12: 4}), k: 5, path: pathWords},
		{name: "rank 5", rank: 5, mode: 1, k: 5, path: pathCompare},
		{name: "empty segments", rank: 2, mode: 2, recs: haloRecs(2, nil), k: 9, route: []byte{0, 3, 3, 8, 0, 5}, recordless: true, path: pathWords},
		{name: "one segment", rank: 2, mode: 2, recs: haloRecs(2, nil), k: 1, path: pathWords},
	} {
		t.Run(c.name, func(t *testing.T) {
			var kc *keys.Codec
			var pb *partBuffer
			if c.rank == 5 {
				kc = &keys.Codec{Rank: 5, Mode: keys.VarMode(c.mode)}
				pb = rank5Partition(kc, 60)
			} else {
				kc, pb = spillSortInput(c.rank-1, c.mode, "windspeed1", "temp", c.recs)
			}
			segs := mergeOrderSegs(t, kc, pb, c.k, c.route)
			if c.recordless {
				empty, err := writeSegment(nil, codec.None)
				if err != nil {
					t.Fatal(err)
				}
				empty.src = len(segs) // as mergeOrderSegs': never recycled
				segs = append(segs, empty)
			}
			if got := checkMergeOrder(t, kc, segs); got != c.path {
				t.Fatalf("merged by %v, want %v", got, c.path)
			}
			checkMergeDownOrder(t, kc, segs)
		})
	}
}

// FuzzMergeOrder: over any grid keys spillSortInput builds, dealt to one to
// eight segments by route, the merge heap gives refMergeStream's records in
// refMergeStream's order, and mergeDown at merge factor 2 gives
// refMergeDown's bytes.
func FuzzMergeOrder(f *testing.F) {
	for i, s := range spillSortSeeds {
		f.Add(s.rank-1, s.mode, s.name, s.name2, s.recs, uint8(i), []byte{byte(i), 1, 7, 2})
	}
	f.Fuzz(func(t *testing.T, rank, mode uint8, name, name2 string, recs []byte, k uint8, route []byte) {
		if len(recs) > 1<<12 {
			return
		}
		kc, pb := spillSortInput(rank, mode, name, name2, recs)
		segs := mergeOrderSegs(t, kc, pb, int(k%8)+1, route)
		checkMergeOrder(t, kc, segs)
		checkMergeDownOrder(t, kc, segs)
	})
}
