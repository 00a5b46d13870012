package mapreduce

import (
	"bytes"
	"fmt"
	"testing"

	"scikey/internal/codec"
	"scikey/internal/keys"
)

// groupPath is how a reduce attempt's grouping was decided: by words from
// the first record to the last, by words until the merge left words mode —
// inside a group, with the group's earlier records grouped by words and its
// later ones by the comparator, or between two groups — or by the
// comparator throughout.
type groupPath int

const (
	groupWords groupPath = iota
	groupSwitchedMidGroup
	groupSwitchedBetween
	groupCompare
)

func (p groupPath) String() string {
	return [...]string{"words", "words, then compare from mid-group", "words, then compare from a group boundary", "compare"}[p]
}

// reducedGroup is one Reduce call: its key and values, copied.
type reducedGroup struct {
	key    []byte
	values [][]byte
}

// recordGroups is a Reducer that keeps a copy of every group it is given.
func recordGroups(out *[]reducedGroup) Reducer {
	return ReducerFunc(func(ctx *TaskContext, key []byte, values [][]byte, emit Emit) error {
		g := reducedGroup{key: bytes.Clone(key)}
		for _, v := range values {
			g.values = append(g.values, bytes.Clone(v))
		}
		*out = append(*out, g)
		return nil
	})
}

// mergeGroupPath drains a merge of segs with the job's key order and says
// where it left words mode: the first record pulled with the merge out of
// words mode either compares equal to the record before it (mid-group) or
// not (between groups).
func mergeGroupPath(t testing.TB, kc *keys.Codec, segs []segment) groupPath {
	t.Helper()
	m, err := newMergeStream(segs, readEnv{codec: codec.None, part: -1}, keyOrder{kc.RawCompareGrid, kc.GridWords})
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	var prev []byte
	for i := 0; ; i++ {
		kv, err := m.pull()
		if err != nil {
			t.Fatal(err)
		}
		if kv == nil {
			return groupWords
		}
		if !m.h.byWords {
			switch {
			case i == 0:
				return groupCompare
			case kc.RawCompareGrid(prev, kv.Key) == 0:
				return groupSwitchedMidGroup
			default:
				return groupSwitchedBetween
			}
		}
		prev = append(prev[:0], kv.Key...)
	}
}

// checkGroupByWords reduces segs twice — with groupReduce straight off the
// engine's merge, which groups by the merge's words while it has them, and
// with refGroupReduce over refMergeStream, one RawCompareGrid call per
// record — and requires the same groups (key, and values in order: each
// value names its segment and position) and the same ReduceInputRecords and
// ReduceInputGroups. It returns how the engine's grouping was decided.
func checkGroupByWords(t testing.TB, kc *keys.Codec, segs []segment) groupPath {
	t.Helper()
	env := readEnv{codec: codec.None, part: -1}
	var want []reducedGroup
	wctx := &TaskContext{counters: &Counters{}}
	ref, err := newRefMergeStream(segs, env, kc.RawCompareGrid)
	if err != nil {
		t.Fatal(err)
	}
	err = refGroupReduce(wctx, ref, kc.RawCompareGrid, recordGroups(&want), nil, nil)
	ref.close()
	if err != nil {
		t.Fatal(err)
	}
	var records int64
	for _, s := range segs {
		records += s.records
	}

	var got []reducedGroup
	gctx := &TaskContext{counters: &Counters{}}
	m, err := newMergeStream(segs, env, keyOrder{kc.RawCompareGrid, kc.GridWords})
	if err != nil {
		t.Fatal(err)
	}
	err = groupReduce(gctx, reduceStream{m: m}, kc.RawCompareGrid, recordGroups(&got), nil, nil)
	m.close()
	if err != nil {
		t.Fatal(err)
	}
	path := mergeGroupPath(t, kc, segs)

	for i := range min(len(got), len(want)) {
		g, w := got[i], want[i]
		if !bytes.Equal(g.key, w.key) || fmt.Sprint(g.values) != fmt.Sprint(w.values) {
			t.Fatalf("grouped by %v: group %d is %x with values %x, the reference has %x with %x",
				path, i, g.key, g.values, w.key, w.values)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("grouped by %v: %d groups, the reference %d", path, len(got), len(want))
	}
	gc, wc := gctx.counters, wctx.counters
	if gc.ReduceInputGroups.Value() != wc.ReduceInputGroups.Value() || gc.ReduceInputRecords.Value() != records {
		t.Fatalf("grouped by %v: %d input records in %d groups, want %d in %d",
			path, gc.ReduceInputRecords.Value(), gc.ReduceInputGroups.Value(), records, wc.ReduceInputGroups.Value())
	}
	return path
}

// TestGroupReduceByWordsMatchesReference: grouping by the merge's cached
// words gives the comparator's groups, value order and counters over every
// rank GridWords serves (1–4), a rank it does not (5), all three variable
// modes, negative and extreme coordinates, equal keys spread over several
// segments, and keys whose trailing bytes differ — and each case takes the
// path it names, including a merge that leaves words mode inside a group
// and one that leaves it between two groups.
func TestGroupReduceByWordsMatchesReference(t *testing.T) {
	const minI, maxI = -1 << 31, 1<<31 - 1
	second := func(ctl byte) map[int]byte { return map[int]byte{1: ctl} }
	late := func(ctl byte) map[int]byte { return map[int]byte{47: ctl, 57: ctl} }
	// Records 0–3 are 2 0 0 / 2 0 1 / 2 0 2 / 2 1 0 and the rest repeat
	// them, 20–23 under the control byte ctl: at rank 3, groups whose words
	// share hi and differ in lo.
	loVaries := func(ctl byte) []byte {
		var recs []byte
		for i := range 24 {
			c := byte(0)
			if i >= 20 {
				c = ctl
			}
			recs = append(recs, c, 2, byte(i%4/3), byte(i%4%3))
		}
		return recs
	}
	for _, c := range []struct {
		name       string
		rank, mode uint8
		recs       []byte
		k          int
		route      []byte
		path       groupPath
	}{
		{name: "rank 1", rank: 1, mode: 2, recs: haloRecs(1, nil), k: 7, route: []byte{3, 1, 4, 1, 5, 9, 2, 6}, path: groupWords},
		{name: "rank 2", rank: 2, mode: 1, recs: haloRecs(2, nil), k: 5, path: groupWords},
		{name: "rank 3", rank: 3, mode: 2, recs: haloRecs(3, nil), k: 4, path: groupWords},
		{name: "rank 3, one hi word, three lo", rank: 3, mode: 1, recs: loVaries(0), k: 3, path: groupWords},
		{name: "rank 4", rank: 4, mode: 1, recs: haloRecs(4, nil), k: 4, path: groupWords},
		{name: "rank 4, extreme coordinates", rank: 4, mode: 2, recs: wideRecs(
			[]int32{0, 0, 1, -1}, []int32{0, 0, -1, 1}, []int32{minI, 0, 0, maxI}, []int32{0, 0, 1, -1},
			[]int32{minI, 0, 0, maxI}, []int32{0, 0, -1, 1}, []int32{maxI, minI, -1, 0}, []int32{0, 0, 1, -1}), k: 3, path: groupWords},
		{name: "no variable section", rank: 3, mode: 0, recs: haloRecs(3, second(1)), k: 5, path: groupWords},
		{name: "all keys equal", rank: 2, mode: 2, recs: bytes.Repeat([]byte{0, 1, 0xff}, 60), k: 6, path: groupWords},
		{name: "trailing bytes", rank: 2, mode: 2, recs: haloRecs(2, map[int]byte{1: 4, 7: 4, 12: 4}), k: 5, path: groupWords},
		{name: "two sections, the second sorts last", rank: 2, mode: 1, recs: haloRecs(2, late(1)), k: 4, path: groupSwitchedMidGroup},
		{name: "a second section between groups", rank: 3, mode: 1, recs: loVaries(1), k: 2, path: groupSwitchedBetween},
		{name: "a key cut short mid-stream", rank: 3, mode: 2, recs: haloRecs(3, late(2|0xf0)), k: 4, path: groupSwitchedMidGroup},
		{name: "two sections, the second sorts first", rank: 2, mode: 2, recs: haloRecs(2, second(1)), k: 5, path: groupCompare},
		{name: "rank 5", rank: 5, mode: 1, k: 5, path: groupCompare},
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
			if got := checkGroupByWords(t, kc, segs); got != c.path {
				t.Fatalf("grouped by %v, want %v", got, c.path)
			}
		})
	}
}

// FuzzGroupReduceByWords: over any grid keys spillSortInput builds, dealt
// to one to eight segments by route, groupReduce gives refGroupReduce's
// groups over refMergeStream, value order and counters included.
func FuzzGroupReduceByWords(f *testing.F) {
	for i, s := range spillSortSeeds {
		f.Add(s.rank-1, s.mode, s.name, s.name2, s.recs, uint8(i), []byte{byte(i), 1, 7, 2})
	}
	f.Fuzz(func(t *testing.T, rank, mode uint8, name, name2 string, recs []byte, k uint8, route []byte) {
		if len(recs) > 1<<12 {
			return
		}
		kc, pb := spillSortInput(rank, mode, name, name2, recs)
		checkGroupByWords(t, kc, mergeOrderSegs(t, kc, pb, int(k%8)+1, route))
	})
}
