package scihadoop

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"scikey/internal/keys"
	"scikey/internal/mapreduce"
	"scikey/internal/serial"
	"scikey/internal/sfc"
)

// The Section IV hooks split encoded keys in place. Their definition is the
// decode-based path they replaced: decode every key, split the structs with
// keys.SplitForPartition / keys.SplitOverlaps, encode every fragment. These
// tests hold the hooks to it byte for byte, order included.

var aggSplitModes = []keys.VarMode{keys.VarNone, keys.VarByIndex, keys.VarByName}

// aggHooks builds the production hooks on a bare job.
func aggHooks(kc *keys.Codec, rp keys.RangePartitioner) *mapreduce.Job {
	job := &mapreduce.Job{}
	aggKeyHooks(job, kc, rp)
	return job
}

// genAggPairs encodes depth layers of keys per variable, each layer a tiling
// of [0, total) by ranges of 1–16 cells with gaps of 0–2, lengths and gaps
// read cyclically from prog; overlap depth is at most depth per variable.
// Every value cell names its layer and position, so a fragment carrying the
// wrong member's bytes shows. The result is sorted by the job's comparator.
func genAggPairs(kc *keys.Codec, total uint64, depth int, prog []byte) []mapreduce.KV {
	pos := 0
	next := func() uint64 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[pos%len(prog)]
		pos++
		return uint64(b)
	}
	vars := []keys.VarRef{{Name: "temp", Index: 0}, {Name: "windspeed1", Index: 1}}
	var out []mapreduce.KV
	for layer := range depth {
		for _, v := range vars {
			for at := next() % 4; at < total; {
				hi := min(at+1+next()%16, total)
				val := make([]byte, 0, (hi-at)*ElemSize)
				for i := at; i < hi; i++ {
					val = binary.BigEndian.AppendUint32(val, uint32(layer)<<24|uint32(i))
				}
				k := kc.AggKeyBytes(keys.AggKey{Var: v, Range: sfc.IndexRange{Lo: at, Hi: hi}})
				out = append(out, mapreduce.KV{Key: k, Value: val})
				at = hi + next()%3
			}
		}
	}
	slices.SortStableFunc(out, func(a, b mapreduce.KV) int { return kc.RawCompareAgg(a.Key, b.Key) })
	return out
}

func decodeAggPairs(t *testing.T, kc *keys.Codec, kvs []mapreduce.KV) []keys.AggPair {
	t.Helper()
	out := make([]keys.AggPair, len(kvs))
	for i, kv := range kvs {
		k, err := kc.DecodeAgg(serial.NewDataInput(kv.Key))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = keys.AggPair{Key: k, Values: kv.Value}
	}
	return out
}

func sameKVs(t *testing.T, what string, got, want []mapreduce.KV) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i].Key, want[i].Key) || !slices.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("%s: pair %d is %x=%x, want %x=%x", what, i, got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// refClusters cuts decoded pairs where keys.SplitOverlaps starts a new
// cluster: the variable changes, or a range begins at or past the running
// max Hi. It returns the cluster lengths.
func refClusters(aps []keys.AggPair) []int {
	var lens []int
	var maxHi uint64
	for i, p := range aps {
		if i == 0 || p.Key.Var != aps[i-1].Key.Var || p.Key.Range.Lo >= maxHi {
			lens = append(lens, 0)
			maxHi = 0
		}
		lens[len(lens)-1]++
		maxHi = max(maxHi, p.Key.Range.Hi)
	}
	return lens
}

// checkAggSplitEquivalence runs one generated stream through the three
// hooks and their decode-based definitions.
func checkAggSplitEquivalence(t *testing.T, mode keys.VarMode, reducers, depth int, prog []byte) {
	kc := &keys.Codec{Mode: mode, Names: []string{"temp", "windspeed1"}}
	const total = 160
	rp := keys.RangePartitioner{Total: total, NumReducers: reducers}
	job := aggHooks(kc, rp)
	pairs := genAggPairs(kc, total, depth, prog)
	aps := decodeAggPairs(t, kc, pairs)

	// Case one: PartitionSplit against SplitForPartition.
	var got []mapreduce.RoutedKV
	for i, kv := range pairs {
		got = job.PartitionSplit(got[:0], kv.Key, kv.Value, reducers)
		want := rp.SplitForPartition(aps[i], ElemSize)
		if len(got) != len(want) {
			t.Fatalf("PartitionSplit(%v): %d fragments, want %d", aps[i].Key, len(got), len(want))
		}
		for j, f := range want {
			if got[j].Partition != f.Partition {
				t.Fatalf("PartitionSplit(%v) fragment %d: partition %d, want %d", aps[i].Key, j, got[j].Partition, f.Partition)
			}
			sameKVs(t, fmt.Sprintf("PartitionSplit(%v)", aps[i].Key), []mapreduce.KV{got[j].KV},
				[]mapreduce.KV{{Key: kc.AggKeyBytes(f.Pair.Key), Value: f.Pair.Values}})
		}
	}

	// Case two: MergeTransform over the whole stream against SplitOverlaps.
	var want []mapreduce.KV
	for _, p := range keys.SplitOverlaps(aps, ElemSize) {
		want = append(want, mapreduce.KV{Key: kc.AggKeyBytes(p.Key), Value: p.Values})
	}
	sameKVs(t, "MergeTransform(whole stream)", job.MergeTransform(slices.Clone(pairs)), want)

	// The windows MergeCut seals are SplitOverlaps' clusters, and the
	// transform over them yields the same stream.
	cut := job.MergeCut()
	var lens []int
	var windowed []mapreduce.KV
	start := 0
	for i, kv := range pairs {
		if cut(kv.Key) {
			lens = append(lens, i-start)
			windowed = append(windowed, job.MergeTransform(slices.Clone(pairs[start:i]))...)
			start = i
		}
	}
	if len(pairs) > 0 {
		lens = append(lens, len(pairs)-start)
		windowed = append(windowed, job.MergeTransform(slices.Clone(pairs[start:]))...)
	}
	if ref := refClusters(aps); !slices.Equal(lens, ref) {
		t.Fatalf("MergeCut windows %v, SplitOverlaps clusters %v", lens, ref)
	}
	sameKVs(t, "MergeTransform(MergeCut windows)", windowed, want)
}

// FuzzAggSplitEquivalence: PartitionSplit, MergeTransform and MergeCut on
// encoded keys produce exactly what decoding, the keys split algebra and
// re-encoding produce, under every variable mode, 1–7 reducers and overlap
// depths 1–4.
func FuzzAggSplitEquivalence(f *testing.F) {
	for mode := range uint8(3) {
		f.Add(mode, uint8(5), uint8(3), []byte{})
		f.Add(mode, uint8(1), uint8(1), []byte{7, 3, 0})
		f.Add(mode, uint8(7), uint8(4), []byte{1, 15, 2, 9, 0, 4, 12, 1})
		f.Add(mode, uint8(3), uint8(2), []byte{3, 3, 3, 0, 0})
		f.Add(mode, uint8(4), uint8(4), []byte("equal lengths make equal keys across layers"))
	}
	f.Fuzz(func(t *testing.T, mode, reducers, depth uint8, prog []byte) {
		if len(prog) > 64 {
			prog = prog[:64]
		}
		checkAggSplitEquivalence(t, aggSplitModes[int(mode)%len(aggSplitModes)],
			1+int(reducers)%7, 1+int(depth)%4, prog)
	})
}

// TestAggHooksRejectMalformedKeys: a key that is not exactly one AggKey
// stops the hooks with its bytes in the message, and the reducer with an
// error, instead of being split on a misread bound or passed on whole.
func TestAggHooksRejectMalformedKeys(t *testing.T) {
	for _, mode := range aggSplitModes {
		kc := &keys.Codec{Mode: mode}
		good := kc.AggKeyBytes(keys.AggKey{Var: keys.VarRef{Name: "temp"}, Range: sfc.IndexRange{Lo: 4, Hi: 8}})
		job := aggHooks(kc, keys.RangePartitioner{Total: 16, NumReducers: 3})
		value := make([]byte, 4*ElemSize)
		bad := map[string][]byte{
			"short":    good[:len(good)-1],
			"trailing": append(slices.Clip(good), 0),
			"empty":    kc.AggKeyBytes(keys.AggKey{Var: keys.VarRef{Name: "temp"}, Range: sfc.IndexRange{Lo: 8, Hi: 8}}),
		}
		if mode == keys.VarByName {
			bad["negative name length"] = append([]byte{0xff}, good[len(good)-16:]...)
			bad["overlong name length"] = append([]byte{40}, good[1:]...)
		}
		for name, key := range bad {
			hooks := map[string]func(){
				"PartitionSplit": func() { job.PartitionSplit(nil, key, value, 3) },
				"MergeTransform": func() { job.MergeTransform([]mapreduce.KV{{Key: good, Value: value}, {Key: key, Value: value}}) },
				"MergeCut":       func() { cut := job.MergeCut(); cut(good); cut(key) },
			}
			for hook, call := range hooks {
				msg := func() (msg string) {
					defer func() { msg = fmt.Sprint(recover()) }()
					call()
					return ""
				}()
				if !strings.Contains(msg, fmt.Sprintf("%x", key)) {
					t.Errorf("mode=%v %s key %x: %s panicked with %q, want the key in hex", mode, name, key, hook, msg)
				}
			}
			r := &aggReducer{kc: kc, op: Max}
			if err := r.Reduce(nil, key, [][]byte{value}, func(k, v []byte) {}); err == nil {
				t.Errorf("mode=%v %s key %x: Reduce returned no error", mode, name, key)
			}
		}
	}
}

// TestAggSplitSingleMemberWindowAllocs: a window of one key — the common
// case, since MergeCut seals every cluster — passes through the transform
// as it came, and the cut predicate reads keys in place.
func TestAggSplitSingleMemberWindowAllocs(t *testing.T) {
	for _, mode := range aggSplitModes {
		kc := &keys.Codec{Mode: mode}
		job := aggHooks(kc, keys.RangePartitioner{Total: 1 << 20, NumReducers: 5})
		window := []mapreduce.KV{{
			Key:   kc.AggKeyBytes(keys.AggKey{Var: keys.VarRef{Name: "windspeed1", Index: 1}, Range: sfc.IndexRange{Lo: 40, Hi: 44}}),
			Value: make([]byte, 4*ElemSize),
		}}
		cut := job.MergeCut()
		cut(window[0].Key)
		allocs := testing.AllocsPerRun(100, func() {
			cut(window[0].Key)
			if out := job.MergeTransform(window); &out[0] != &window[0] {
				t.Fatal("a single-member window was copied")
			}
		})
		if allocs != 0 {
			t.Errorf("mode=%v: %.1f allocations per single-member window, want 0", mode, allocs)
		}
	}
}

// TestAggPartitionSplitOnePartitionAllocs: a key that stays in one
// partition — all but a few of a task's emits — is appended to the map
// task's reused scratch as it came, key and value aliased, allocating
// nothing. The old hook returned a fresh one-element slice per emit.
func TestAggPartitionSplitOnePartitionAllocs(t *testing.T) {
	for _, mode := range aggSplitModes {
		kc := &keys.Codec{Mode: mode}
		job := aggHooks(kc, keys.RangePartitioner{Total: 1 << 20, NumReducers: 5})
		key := kc.AggKeyBytes(keys.AggKey{Var: keys.VarRef{Name: "windspeed1", Index: 1}, Range: sfc.IndexRange{Lo: 40, Hi: 44}})
		value := make([]byte, 4*ElemSize)
		routed := job.PartitionSplit(nil, key, value, 5)
		allocs := testing.AllocsPerRun(100, func() {
			routed = job.PartitionSplit(routed[:0], key, value, 5)
		})
		if allocs != 0 {
			t.Errorf("mode=%v: %.1f allocations per one-partition emit into a reused scratch, want 0", mode, allocs)
		}
		if len(routed) != 1 || &routed[0].Key[0] != &key[0] || &routed[0].Value[0] != &value[0] {
			t.Errorf("mode=%v: routed %d fragments, want the key and value as they came", mode, len(routed))
		}
	}
}

// TestAggReducerWarmAllocs: a warm aggReducer reuses its fold scratch and
// its pending range across groups, so a group allocates nothing, whether it
// is emitted as it is, extends the pending range, or flushes it. The
// emitted bytes are checked against the fold of the layers.
func TestAggReducerWarmAllocs(t *testing.T) {
	kc := &keys.Codec{Mode: keys.VarByName}
	// Two adjacent groups, then one past a gap: with reagg the second
	// extends the first's pending range and the third flushes it. Layer 2
	// holds each cell's largest value.
	type group struct {
		key    []byte
		values [][]byte
	}
	var groups []group
	for _, r := range [][2]uint64{{0, 4}, {4, 8}, {10, 14}} {
		g := group{key: kc.AggKeyBytes(keys.AggKey{Var: keys.VarRef{Name: "windspeed1"}, Range: sfc.IndexRange{Lo: r[0], Hi: r[1]}})}
		for layer := range 3 {
			var v []byte
			for c := r[0]; c < r[1]; c++ {
				v = binary.BigEndian.AppendUint32(v, uint32(int(c)*10+layer))
			}
			g.values = append(g.values, v)
		}
		groups = append(groups, g)
	}
	for _, reagg := range []bool{false, true} {
		r := &aggReducer{kc: kc, op: Max, reagg: reagg}
		var got []byte
		emit := func(k, v []byte) { got = append(got[:0], v...) }
		cycle := func() {
			for _, g := range groups {
				if err := r.Reduce(nil, g.key, g.values, emit); err != nil {
					t.Fatal(err)
				}
			}
		}
		cycle()
		if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
			t.Errorf("reagg=%t: %.1f allocations per %d warm groups, want 0", reagg, allocs, len(groups))
		}
		// The last emit: the third group as it is, or the first two's
		// pending range, flushed by the third.
		want := groups[2].values[2]
		if reagg {
			want = append(slices.Clone(groups[0].values[2]), groups[1].values[2]...)
		}
		if string(got) != string(want) {
			t.Errorf("reagg=%t: last emit %x, want %x", reagg, got, want)
		}
	}
}
